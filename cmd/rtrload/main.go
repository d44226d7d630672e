// Command rtrload drives an rtrsimd daemon with a recovery-query
// workload and reports throughput and HDR-style latency percentiles.
// It regenerates the daemon's topology locally (same seed, same
// deterministic synthesis), builds a query mix of real test cases
// across a configurable number of failure instances, and fires it
// either closed-loop (each connection sends its next query as soon as
// the previous answer lands) or open-loop (queries depart on a fixed
// schedule; latency includes queueing, so a saturated server is
// visible instead of coordinated away).
//
//	rtrload -as AS7018 -duration 5s                 # closed loop, 8 conns
//	rtrload -mode open -rate 500 -scheme rtr        # open loop at 500 qps
//
// The numbers are the daemon's end-to-end serving qps and client-side
// tail latency over HTTP; the in-process serving costs (hit, miss,
// per-stage) are measured by bench/ (see bench/README.md).
// Exit status: 1 on a flag that would send no load (-conns < 1,
// -duration <= 0, open mode with -rate <= 0), any request error, or qps
// below -min-qps.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failure"
	"repro/internal/perf"
	seedpkg "repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/sim"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8723", "rtrsimd address (host:port)")
		asFlag   = flag.String("as", "AS7018", "topology to load against")
		seed     = flag.Int64("seed", 1, "synthesis seed; must match the daemon's -seed")
		scheme   = flag.String("scheme", "all", "query scheme: rtr, fcp, mrc, or all")
		duration = flag.Duration("duration", 5*time.Second, "load duration")
		mode     = flag.String("mode", "closed", "closed (latency-bounded) or open (rate-bounded)")
		conns    = flag.Int("conns", 8, "concurrent connections (open mode: max in-flight)")
		rate     = flag.Float64("rate", 200, "open-loop departure rate (queries/sec)")
		failures = flag.Int("failures", 16, "distinct failure instances in the query mix")
		pairs    = flag.Int("pairs", 8, "queries (cases) per failure instance")
		batch    = flag.Int("batch", 0, "POST batches of up to N (src,dst) pairs per failure instance (0 or 1 fires single GET queries)")
		wait     = flag.Duration("wait", 30*time.Second, "max time to wait for the daemon's /healthz")
		minQPS   = flag.Float64("min-qps", 0, "exit 1 when achieved qps is below this")
	)
	flag.Parse()
	switch {
	case *mode != "closed" && *mode != "open":
		die(fmt.Errorf("unknown -mode %q (want closed or open)", *mode))
	case *conns < 1:
		die(fmt.Errorf("-conns %d: need at least one connection", *conns))
	case *duration <= 0:
		die(fmt.Errorf("-duration %v: must be positive", *duration))
	case *mode == "open" && *rate <= 0:
		die(fmt.Errorf("-rate %g: open mode needs a positive rate", *rate))
	}

	w, err := sim.NewWorld(*asFlag, *seed)
	if err != nil {
		die(err)
	}
	mix := buildMix(w, *asFlag, *seed, *failures, *pairs, *scheme)
	if len(mix) == 0 {
		die(fmt.Errorf("no test cases found on %s", *asFlag))
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *conns,
			MaxIdleConnsPerHost: *conns,
		},
	}
	if err := waitReady(client, base, *wait); err != nil {
		die(err)
	}
	before, err := fetchStats(client, base)
	if err != nil {
		die(err)
	}

	// -batch folds the mix into POST batches: the queries that share a
	// failure instance ride one request and one server-side cache
	// lookup. Latency is then per batch, throughput still per pair.
	fire := func(i int) bool { return doQuery(client, base, mix[i%len(mix)]) }
	perReq := 1
	if *batch > 1 {
		batches := buildBatches(mix, *batch)
		perReq = (len(mix) + len(batches) - 1) / len(batches)
		fire = func(i int) bool { return doBatch(client, base, batches[i%len(batches)]) }
	}

	var (
		hist    perf.Histogram
		total   int64
		errs    int64
		elapsed time.Duration
	)
	switch *mode {
	case "closed":
		total, errs, elapsed = runClosed(&hist, fire, *conns, *duration)
	case "open":
		total, errs, elapsed = runOpen(&hist, fire, *conns, *rate, *duration)
	}
	after, err := fetchStats(client, base)
	if err != nil {
		die(err)
	}
	hitRate := serve.HitRate(before, after)
	qps := 0.0
	if elapsed > 0 {
		qps = float64(total) / elapsed.Seconds()
	}

	fmt.Printf("rtrload: %s %s scheme=%s mode=%s conns=%d mix=%d queries/%d failures\n",
		base, *asFlag, *scheme, *mode, *conns, len(mix), *failures)
	if perReq > 1 {
		fmt.Printf("  batched: ~%d pairs per request (-batch %d), %.1f pairs/sec\n",
			perReq, *batch, qps*float64(perReq))
	}
	fmt.Printf("  %d requests in %v: %.1f qps, %d errors, cache hit rate %.1f%%\n",
		total, elapsed.Round(time.Millisecond), qps, errs, 100*hitRate)
	fmt.Printf("  latency p50 %v  p90 %v  p99 %v  p999 %v  max %v\n",
		ns(hist.Quantile(0.5)), ns(hist.Quantile(0.9)), ns(hist.Quantile(0.99)),
		ns(hist.Quantile(0.999)), ns(hist.Max()))

	if errs > 0 {
		fmt.Fprintf(os.Stderr, "rtrload: %d request errors\n", errs)
		os.Exit(1)
	}
	if *minQPS > 0 && qps < *minQPS {
		fmt.Fprintf(os.Stderr, "rtrload: %.1f qps below -min-qps %.1f\n", qps, *minQPS)
		os.Exit(1)
	}
}

func ns(v int64) time.Duration { return time.Duration(v).Round(time.Microsecond) }

func die(err error) {
	fmt.Fprintf(os.Stderr, "rtrload: %v\n", err)
	os.Exit(1)
}

// buildMix enumerates real test cases from deterministic random
// failure instances — the identical derivation for every client with
// the same seed, so daemon and load generator agree on the graphs and
// the instances without any out-of-band coordination.
func buildMix(w *sim.World, topo string, seed int64, failures, pairs int, scheme string) []serve.Query {
	rng := rand.New(rand.NewSource(seedpkg.Derive(seed, "rtrload", topo)))
	var mix []serve.Query
	got := 0
	for draws := 0; got < failures && draws < sim.MaxCollectDraws; draws++ {
		sc := failure.RandomScenario(w.Topo, rng)
		rec, irr := sim.CasesFromScenario(w, sc)
		cases := append(rec, irr...)
		if len(cases) == 0 {
			continue
		}
		if len(cases) > pairs {
			cases = cases[:pairs]
		}
		for _, c := range cases {
			mix = append(mix, serve.Query{
				Topo: topo, Failure: sc.Desc(),
				Src: int(c.Initiator), Dst: int(c.Dst), Scheme: scheme,
			})
		}
		got++
	}
	return mix
}

func queryURL(base string, q serve.Query) string {
	v := url.Values{
		"topo":    {q.Topo},
		"failure": {q.Failure},
		"src":     {strconv.Itoa(q.Src)},
		"dst":     {strconv.Itoa(q.Dst)},
	}
	if q.Scheme != "" {
		v.Set("scheme", q.Scheme)
	}
	return base + "/recover?" + v.Encode()
}

// doQuery fires one GET and fully drains the response so the
// connection is reusable; any transport error or non-200 counts as a
// request error.
func doQuery(client *http.Client, base string, q serve.Query) bool {
	resp, err := client.Get(queryURL(base, q))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// buildMix keeps the queries of one failure instance adjacent, so
// folding runs of equal (topo, failure, scheme) into size-capped
// batches recovers exactly the per-instance grouping.
func buildBatches(mix []serve.Query, size int) []serve.Batch {
	var out []serve.Batch
	for _, q := range mix {
		n := len(out)
		if n == 0 || out[n-1].Topo != q.Topo || out[n-1].Failure != q.Failure ||
			out[n-1].Scheme != q.Scheme || len(out[n-1].Pairs) >= size {
			out = append(out, serve.Batch{Topo: q.Topo, Failure: q.Failure, Scheme: q.Scheme})
			n++
		}
		out[n-1].Pairs = append(out[n-1].Pairs, serve.Pair{Src: q.Src, Dst: q.Dst})
	}
	return out
}

// doBatch fires one POST batch and fully drains the response; any
// transport error or non-200 counts as a request error.
func doBatch(client *http.Client, base string, b serve.Batch) bool {
	body, err := json.Marshal(b)
	if err != nil {
		return false
	}
	resp, err := client.Post(base+"/recover", "application/json", bytes.NewReader(body))
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func waitReady(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s not ready after %v", base, timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func fetchStats(client *http.Client, base string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/statsz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// runClosed runs the closed loop: conns workers, each sending its next
// request the moment the previous answer lands. Latency is per-request
// round trip; per-worker histograms merge after the run so the hot
// path records into unshared memory.
func runClosed(out *perf.Histogram, fire func(i int) bool, conns int, d time.Duration) (total, errs int64, elapsed time.Duration) {
	hists := make([]perf.Histogram, conns)
	var wg sync.WaitGroup
	var errCount atomic.Int64
	deadline := time.Now().Add(d)
	start := time.Now()
	for wk := 0; wk < conns; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			h := &hists[wk]
			// Workers start at spread offsets so the same instant mixes
			// failure instances instead of stampeding one entry.
			for i := wk * 7; time.Now().Before(deadline); i++ {
				t0 := time.Now()
				if !fire(i) {
					errCount.Add(1)
				}
				h.Record(time.Since(t0).Nanoseconds())
			}
		}(wk)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for i := range hists {
		out.Merge(&hists[i])
	}
	return out.Count(), errCount.Load(), elapsed
}

// runOpen runs the open loop: requests depart on a fixed schedule
// (rate/sec) regardless of completions, with at most conns in flight.
// Latency is measured from the intended departure time, so queueing
// behind a saturated server shows up in the tail instead of silently
// slowing the offered load (the coordinated-omission fix).
func runOpen(out *perf.Histogram, fire func(i int) bool, conns int, rate float64, d time.Duration) (total, errs int64, elapsed time.Duration) {
	if rate <= 0 {
		return 0, 0, 0
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	ticks := int64(d / interval)
	hists := make([]perf.Histogram, conns)
	var wg sync.WaitGroup
	var errCount atomic.Int64
	var next atomic.Int64
	start := time.Now()
	for wk := 0; wk < conns; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			h := &hists[wk]
			for {
				i := next.Add(1) - 1
				if i >= ticks {
					return
				}
				intended := start.Add(time.Duration(i) * interval)
				if wait := time.Until(intended); wait > 0 {
					time.Sleep(wait)
				}
				if !fire(int(i)) {
					errCount.Add(1)
				}
				h.Record(time.Since(intended).Nanoseconds())
			}
		}(wk)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for i := range hists {
		out.Merge(&hists[i])
	}
	return out.Count(), errCount.Load(), elapsed
}
