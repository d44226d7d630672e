package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
)

// Handler returns the daemon's HTTP mux:
//
//	GET  /recover?topo=AS7018&failure=disk(1200,900,250)&src=3&dst=41[&scheme=rtr]
//	POST /recover        {"topo": ..., "failure": ..., "src": 3, "dst": 41}
//	POST /recover        {"topo": ..., "failure": ..., "pairs": [{"src":3,"dst":41}, ...]}
//	GET  /healthz        liveness (200 once worlds are loaded)
//	GET  /statsz         counter snapshot (cache hits/misses/evictions)
//
// Responses are JSON; client mistakes are 400 with {"error": ...},
// server-side failures (including invariant violations under -check)
// are 500.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/recover", e.handleRecover)
	mux.HandleFunc("/healthz", e.handleHealthz)
	mux.HandleFunc("/statsz", e.handleStatsz)
	return mux
}

func (e *Engine) handleRecover(w http.ResponseWriter, r *http.Request) {
	var q Query
	switch r.Method {
	case http.MethodGet:
		qs := r.URL.Query()
		q.Topo = qs.Get("topo")
		q.Failure = qs.Get("failure")
		q.Scheme = qs.Get("scheme")
		var err error
		if q.Src, err = strconv.Atoi(qs.Get("src")); err != nil {
			e.badRequest(w, "bad src "+strconv.Quote(qs.Get("src")))
			return
		}
		if q.Dst, err = strconv.Atoi(qs.Get("dst")); err != nil {
			e.badRequest(w, "bad dst "+strconv.Quote(qs.Get("dst")))
			return
		}
	case http.MethodPost:
		var body struct {
			Query
			Pairs []Pair `json:"pairs"`
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&body); err != nil {
			e.badRequest(w, "bad request body: "+err.Error())
			return
		}
		// A pairs array makes the request a batch: one failure
		// instance, one cache lookup, many (src, dst) answers.
		if len(body.Pairs) > 0 {
			resp, err := e.QueryBatch(Batch{
				Topo:    body.Topo,
				Failure: body.Failure,
				Scheme:  body.Scheme,
				Pairs:   body.Pairs,
			})
			writeResult(w, resp, err)
			return
		}
		q = body.Query
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	resp, err := e.Query(q)
	writeResult(w, resp, err)
}

func (e *Engine) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// handleStatsz serves the counter snapshot, a cold admin read that
// stays on encoding/json.
func (e *Engine) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(e.Stats())
}

// badRequest rejects a request that never became a well-formed Query
// (Engine.Query counts the ones that did).
func (e *Engine) badRequest(w http.ResponseWriter, msg string) {
	e.st.clientErrors.Add(1)
	writeError(w, http.StatusBadRequest, msg)
}

// answer is a /recover payload that appends itself as JSON (encode.go).
type answer interface {
	appendJSON(b []byte) ([]byte, error)
}

// writeResult writes a successful payload, a 400 for client mistakes,
// or a 500 for server-side failures — among them an answer with no
// JSON form (a NaN or infinite float), which is never sent half
// written.
func writeResult(w http.ResponseWriter, resp answer, err error) {
	if err != nil {
		var ce *ClientError
		if errors.As(err, &ce) {
			writeError(w, http.StatusBadRequest, ce.Error())
		} else {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeBody(w, http.StatusOK, resp)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeBody(w, code, errorBody(msg))
}

// bufPool holds the buffers bodies are encoded into.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf bounds the buffers returned to bufPool, so that one
// large batch answer does not pin its memory.
const maxPooledBuf = 64 << 10

// writeBody encodes body into a pooled buffer, then sends it,
// newline-terminated, under code in one Write. A body that fails to
// encode is replaced by a 500 carrying the error.
func writeBody(w http.ResponseWriter, code int, body answer) {
	bp := bufPool.Get().(*[]byte)
	b, err := body.appendJSON((*bp)[:0])
	if err != nil {
		code = http.StatusInternalServerError
		b, _ = errorBody("serve: encoding the answer: " + err.Error()).appendJSON(b[:0])
	}
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
	if cap(b) <= maxPooledBuf {
		*bp = b
		bufPool.Put(bp)
	}
}
