package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
)

// TestHTTPRoundTrip proves the HTTP layer is a faithful transport: a
// GET and a POST of the same query return JSON identical to the
// in-process Engine.Query answer, and /statsz reflects the traffic.
func TestHTTPRoundTrip(t *testing.T) {
	e := testEngine(t, "AS1239", 4)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	q := testCaseQuery(t, e, "AS1239")
	want, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	// The direct query warmed the cache, so both transports see a hit
	// and compare cleanly against the direct answer with CacheHit set.
	want.CacheHit = true
	wantJSON := mustJSON(t, want)

	get := srv.URL + "/recover?" + url.Values{
		"topo":    {q.Topo},
		"failure": {q.Failure},
		"src":     {strconv.Itoa(q.Src)},
		"dst":     {strconv.Itoa(q.Dst)},
	}.Encode()
	for _, fetch := range []func() (*http.Response, error){
		func() (*http.Response, error) { return http.Get(get) },
		func() (*http.Response, error) {
			body, _ := json.Marshal(q)
			return http.Post(srv.URL+"/recover", "application/json", bytes.NewReader(body))
		},
	} {
		resp, err := fetch()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var got Response
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("bad response body %q: %v", body, err)
		}
		if gotJSON := mustJSON(t, &got); gotJSON != wantJSON {
			t.Errorf("transport answer differs from in-process answer:\n got  %s\n want %s", gotJSON, wantJSON)
		}
	}

	hres, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hres.Body)
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK || string(hbody) != "ok\n" {
		t.Errorf("/healthz: %d %q", hres.StatusCode, hbody)
	}

	sres, err := http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(sres.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sres.Body.Close()
	if st.Queries != 3 || st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Errorf("/statsz after 1 direct + 2 HTTP queries: %+v", st)
	}
}

// TestHTTPBatch proves the POST batch dispatch: a body with a pairs
// array is answered as one BatchResponse identical to the in-process
// QueryBatch answer, and an empty-pairs batch is a 400.
func TestHTTPBatch(t *testing.T) {
	e := testEngine(t, "AS1239", 4)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	q := testCaseQuery(t, e, "AS1239")
	b := Batch{Topo: q.Topo, Failure: q.Failure, Pairs: []Pair{{Src: q.Src, Dst: q.Dst}, {Src: q.Dst, Dst: q.Src}}}
	want, err := e.QueryBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	// The direct batch warmed the cache; the transport replay is a hit.
	want.CacheHit = true
	for _, r := range want.Results {
		r.CacheHit = true
	}

	body, _ := json.Marshal(b)
	resp, err := http.Post(srv.URL+"/recover", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var got BatchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("bad batch body %q: %v", raw, err)
	}
	if gotJSON, wantJSON := mustJSON(t, &got), mustJSON(t, want); gotJSON != wantJSON {
		t.Errorf("transport batch differs from in-process batch:\n got  %s\n want %s", gotJSON, wantJSON)
	}

	empty, _ := json.Marshal(Batch{Topo: q.Topo, Failure: q.Failure, Pairs: []Pair{}})
	eres, err := http.Post(srv.URL+"/recover", "application/json", bytes.NewReader(empty))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, eres.Body)
	eres.Body.Close()
	// No pairs means the body is a plain single query — with src ==
	// dst == 0, a client error either way.
	if eres.StatusCode != http.StatusBadRequest {
		t.Errorf("empty-pairs POST: status %d, want 400", eres.StatusCode)
	}
}

// TestHTTPErrors pins the status-code contract: malformed requests
// are 400 with a JSON error, wrong methods 405.
func TestHTTPErrors(t *testing.T) {
	e := testEngine(t, "AS1239", 4)
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		name, target string
		status       int
	}{
		{"bad src", "/recover?topo=AS1239&failure=none&src=three&dst=1", http.StatusBadRequest},
		{"unknown topo", "/recover?topo=AS9999&failure=none&src=0&dst=1", http.StatusBadRequest},
		{"bad failure", "/recover?topo=AS1239&failure=disk(&src=0&dst=1", http.StatusBadRequest},
	} {
		resp, err := http.Get(srv.URL + tc.target)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: non-JSON error body: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status || body["error"] == "" {
			t.Errorf("%s: status %d, body %v", tc.name, resp.StatusCode, body)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/recover", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: status %d, want 405", resp.StatusCode)
	}

	// Oversized/garbage POST body is a 400, not a hang or a 500.
	pres, err := http.Post(srv.URL+"/recover", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, pres.Body)
	pres.Body.Close()
	if pres.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage POST: status %d, want 400", pres.StatusCode)
	}
}

// TestHTTPUnencodableAnswer: an answer with no JSON form (a NaN
// converged cost) is a 500 with a JSON error body, never a 200 with
// a body cut short.
func TestHTTPUnencodableAnswer(t *testing.T) {
	rec := httptest.NewRecorder()
	writeResult(rec, &Response{Topo: "AS1239", Disposition: DispRecovery, ConvergedCost: math.NaN()}, nil)
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("status %d, non-JSON body %q: %v", rec.Code, rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusInternalServerError || body["error"] == "" {
		t.Errorf("status %d, body %v; want 500 with an error", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
}
