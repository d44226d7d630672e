package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// referenceJSON is what encoding/json writes for v, the bytes the
// append encoder must reproduce.
func referenceJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// sameAsEncodingJSON fails t unless a's appended JSON, newline added,
// is byte for byte the encoding/json form of ref, and unless both fail
// together on a value with no JSON form.
func sameAsEncodingJSON(t *testing.T, a answer, ref any) {
	t.Helper()
	want, werr := referenceJSON(ref)
	got, gerr := a.appendJSON(nil)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("encoding/json error %v, append encoder error %v", werr, gerr)
	}
	if werr != nil {
		return
	}
	if got = append(got, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("append encoder differs from encoding/json:\n got  %q\n want %q", got, want)
	}
}

// servedBodies returns /recover bodies as the daemon serves them: every
// scheme on a bundled topology, a batch, and rtr on a scale world,
// whose answers are mostly a long phase1_bytes array.
func servedBodies(t testing.TB) [][]byte {
	var bodies [][]byte
	serve := func(e *Engine, qs []Query) {
		h := e.Handler()
		for _, q := range qs {
			target := "/recover?" + url.Values{
				"topo": {q.Topo}, "failure": {q.Failure}, "scheme": {q.Scheme},
				"src": {strconv.Itoa(q.Src)}, "dst": {strconv.Itoa(q.Dst)},
			}.Encode()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			bodies = append(bodies, rec.Body.Bytes())
		}
	}
	e, err := New(Config{Topos: []string{"AS1239"}, Seed: testSeed, CacheEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	var qs []Query
	for _, s := range []string{SchemeAll, sim.SchemeFCP, sim.SchemeSpread} {
		qs = append(qs, mixQueries(e, "AS1239", 2, 2, s)...)
	}
	serve(e, qs)
	b := Batch{Topo: qs[0].Topo, Failure: qs[0].Failure}
	for _, q := range qs[:2] {
		b.Pairs = append(b.Pairs, Pair{Src: q.Src, Dst: q.Dst})
	}
	br, err := e.QueryBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := referenceJSON(br)
	if err != nil {
		t.Fatal(err)
	}
	bodies = append(bodies, batch)

	se, q := scaleEngineQuery(t, 2048)
	serve(se, []Query{q})
	return bodies
}

// FuzzResponseJSON holds the append encoder to encoding/json byte for
// byte. Each input is a served body, decoded as a Response and as a
// BatchResponse, then overlaid by the fuzzed string s and float x as
// flags say: strings with HTML, control and line-separator characters
// or invalid UTF-8, floats at the format's edges (and NaN or ±Inf,
// which both encoders must refuse), nil and empty slices, and
// multi-key schemes maps.
func FuzzResponseJSON(f *testing.F) {
	for _, body := range servedBodies(f) {
		f.Add(body, "", 0.0, uint8(0))
	}
	tricky := "<a href=\"x\">&amp;</a>\\  \x00\x1f\x7f\xff\xc3(é"
	for i, x := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 5e-324, 2.2250738585072014e-308, 1.5, 123456789.125} {
		f.Add([]byte(`{"topo":"AS1239","case":{"recoverable":true}}`), tricky, x, uint8(i*37+1))
	}
	f.Add([]byte(`{}`), tricky, math.NaN(), uint8(0xff))
	f.Add([]byte(`{}`), "", math.Inf(-1), uint8(0x04))
	f.Fuzz(func(t *testing.T, body []byte, s string, x float64, flags uint8) {
		// A body that is not a whole answer decodes partly, or not at
		// all; what did decode is still an answer to encode.
		var r Response
		json.Unmarshal(body, &r)
		var br BatchResponse
		json.Unmarshal(body, &br)
		overlay(&r, s, x, flags)
		for i, res := range br.Results {
			if res != nil {
				overlay(res, s, x, flags>>i|flags<<(8-i))
			}
		}
		if flags&0x80 != 0 {
			br.Topo, br.Scheme = s, s
			br.Results = append(br.Results, &r, nil)
		}
		if flags&0x40 != 0 && flags&0x80 == 0 {
			br.Results = []*Response{}
		}
		sameAsEncodingJSON(t, &r, &r)
		sameAsEncodingJSON(t, &br, &br)
		sameAsEncodingJSON(t, errorBody(s), map[string]string{"error": s})
	})
}

// overlay writes s and x into r's string and float fields, and reshapes
// its slices and schemes map, as the bits of flags select.
func overlay(r *Response, s string, x float64, flags uint8) {
	if flags&0x01 != 0 {
		r.Topo, r.Failure = s, s+s
	}
	if flags&0x02 != 0 {
		r.Scheme, r.Disposition = s, "x"+s
		r.CacheHit, r.PathAffected = !r.CacheHit, !r.PathAffected
	}
	if flags&0x04 != 0 {
		r.ConvergedCost, r.ConvergedHops = x, -int(flags)
	}
	if flags&0x08 != 0 && r.Case == nil {
		r.Case = &sim.CaseRecord{Err: s}
	}
	c := r.Case
	if c == nil {
		return
	}
	if flags&0x10 != 0 {
		c.RTR.Stretch, c.FCP.Stretch, c.MRC.Stretch = x, -x, x*x
		c.RTR.Recovered, c.FCP.Optimal, c.MRC.Skipped = true, true, true
	}
	switch flags & 0x60 {
	case 0x20:
		c.RTR.Phase1Bytes, c.FCP.WalkBytes = nil, []int{}
	case 0x40:
		c.RTR.Phase1Bytes, c.FCP.WalkBytes = []int{}, nil
	case 0x60:
		for i := 0; i < len(s); i++ {
			v := int(int8(s[i])) << (i % 63)
			c.RTR.Phase1Bytes = append(c.RTR.Phase1Bytes, v)
			c.FCP.WalkBytes = append(c.FCP.WalkBytes, -v)
		}
	}
	if flags&0x80 != 0 {
		if c.Schemes == nil {
			c.Schemes = map[string]sim.Result{}
		}
		c.Schemes[s] = sim.Result{Delivered: true, Stretch: x, SPCalcs: len(s)}
		c.Schemes["<"+s] = sim.Result{Optimal: true, Skipped: true}
		c.Schemes["rtr-spread"] = sim.Result{NoLiveNeighbor: true}
		c.Schemes[""] = sim.Result{}
	}
}

// discardWriter is an http.ResponseWriter that keeps nothing of a
// body, so that measuring a handler's allocations prices the handler,
// not a recorder's growing buffer.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

// TestWarmAnswerSplicesPhase1 pins the per-session sharing, not a
// timing: a warm scale-world /recover answer through Handler() neither
// copies its session's phase-1 series (8 bytes a hop) nor re-encodes
// it, so it allocates less than that series would take.
func TestWarmAnswerSplicesPhase1(t *testing.T) {
	e, q := scaleEngineQuery(t, 4096)
	h := e.Handler()
	req := httptest.NewRequest(http.MethodGet, "/recover?"+url.Values{
		"topo": {q.Topo}, "failure": {q.Failure}, "scheme": {q.Scheme},
		"src": {strconv.Itoa(q.Src)}, "dst": {strconv.Itoa(q.Dst)},
	}.Encode(), nil)

	first := httptest.NewRecorder()
	h.ServeHTTP(first, req)
	resp, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	resp.CacheHit = false
	want, err := referenceJSON(resp)
	if err != nil {
		t.Fatal(err)
	}
	if first.Code != http.StatusOK || !bytes.Equal(first.Body.Bytes(), want) {
		t.Fatalf("first answer: status %d, body differs from encoding/json:\n got  %s\n want %s", first.Code, first.Body.Bytes(), want)
	}
	hops := len(resp.Case.RTR.Phase1Bytes)
	if hops == 0 {
		t.Fatal("the answer carries no phase-1 walk")
	}

	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // warm the buffer pool
	const reps = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		h.ServeHTTP(w, req)
	}
	runtime.ReadMemStats(&after)
	if w.code != http.StatusOK {
		t.Fatalf("warm answer: status %d", w.code)
	}
	perAnswer := (after.TotalAlloc - before.TotalAlloc) / reps
	t.Logf("%d bytes per warm answer with %d phase-1 hops (%d body bytes)", perAnswer, hops, w.n/(reps+1))
	if series := uint64(8 * hops); perAnswer >= series {
		t.Errorf("a warm answer allocates %d bytes, its %d-hop phase-1 series is %d", perAnswer, hops, series)
	}
}

// TestConcurrentFirstAnswersShareOneFragment: answers racing on new
// sessions each encode the phase-1 series themselves (the entry's lock
// is never held across an encode), all produce encoding/json's bytes,
// and the entry keeps exactly one fragment per session, the first
// insert's. Run under -race.
func TestConcurrentFirstAnswersShareOneFragment(t *testing.T) {
	e := testEngine(t, "AS1239", 4)
	queries := mixQueries(e, "AS1239", 1, 64, SchemeRTR)
	const rounds = 4
	bodies := make([][][]byte, rounds)
	resps := make([][]*Response, rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		bodies[r] = make([][]byte, len(queries))
		resps[r] = make([]*Response, len(queries))
		for i, q := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := e.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				b, err := resp.appendJSON(nil)
				if err != nil {
					t.Error(err)
					return
				}
				bodies[r][i], resps[r][i] = append(b, '\n'), resp
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	sessions := map[*core.Session]bool{}
	var en *entry
	for r := range resps {
		for i, resp := range resps[r] {
			want, err := referenceJSON(resp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bodies[r][i], want) {
				t.Fatalf("round %d query %d: body differs from encoding/json:\n got  %s\n want %s", r, i, bodies[r][i], want)
			}
			if resp.sess != nil && len(resp.sess.Phase1Bytes()) > 0 {
				sessions[resp.sess] = true
			}
			if en == nil {
				en = resp.en
			} else if resp.en != en {
				t.Fatal("answers on one failure rode two cache entries")
			}
		}
	}
	if len(sessions) == 0 {
		t.Fatal("no answer rode a session with a phase-1 walk")
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	if len(en.frags) != len(sessions) {
		t.Errorf("entry holds %d fragments for %d sessions", len(en.frags), len(sessions))
	}
	for sess := range sessions {
		if f, want := en.frags[sess], appendInts(nil, sess.Phase1Bytes()); !bytes.Equal(f, want) {
			t.Errorf("session %p: fragment %s, want %s", sess, f, want)
		}
	}
}
