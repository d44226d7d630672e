// Command rtrsimd is the recovery-as-a-service daemon: it loads one
// immutable world per Table II topology at startup and answers
// single-pair recovery queries over HTTP, keeping a bounded LRU of
// post-failure converged state so repeated failure instances are
// served warm (one incremental recompute, then cache hits).
//
// Usage:
//
//	rtrsimd                                  # serve every topology on 127.0.0.1:8723
//	rtrsimd -as AS7018 -cache 128            # one topology, bigger cache
//	rtrsimd -check                           # invariant oracle on every case served
//
// Endpoints (see internal/serve):
//
//	GET  /recover?topo=AS7018&failure=disk(1200,900,250)&src=3&dst=41[&scheme=rtr]
//	POST /recover   {"topo":..., "failure":..., "src":3, "dst":41}
//	GET  /healthz   liveness
//	GET  /statsz    cache hit/miss/eviction counters
//
// Responses are byte-identical to the sim harness's per-case outcomes
// — the daemon is a serving shape over the same engines, never a
// different answer. Connections that stall mid-request, never read
// their response, or sit idle are closed on fixed timeouts. On
// SIGINT/SIGTERM the daemon stops accepting new
// connections, drains in-flight requests (bounded by -drain), and
// exits 2, mirroring the sweep engine's interrupt discipline.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/scheme"
	"repro/internal/serve"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:8723", "listen address")
		asFlag = flag.String("as", "all", "comma-separated Table II topologies to serve, or 'all'")
		seed   = flag.Int64("seed", 1, "topology synthesis seed (clients must use the same seed to talk about the same graphs)")
		cache  = flag.Int("cache", 64, "converged-state LRU capacity across topologies; 0 disables caching (every query rebuilds converged state)")
		check  = flag.Bool("check", false, "run the invariant oracle on every recovery case served; violations answer 500 with a repro string")
		drain  = flag.Duration("drain", 10*time.Second, "maximum time to wait for in-flight requests on shutdown")
		schm   = flag.String("scheme", "", "default recovery scheme for queries that omit one: a registry name ("+strings.Join(scheme.Names(), ", ")+") or 'all' (the default); an explicit query scheme always wins")
	)
	flag.Parse()
	// An unknown -scheme never starts the daemon: fail at flag parse,
	// not on the first query that trips over it.
	if *schm != "" && *schm != serve.SchemeAll {
		if _, err := scheme.Get(*schm); err != nil {
			die(err)
		}
	}
	var topos []string
	if *asFlag != "all" {
		for _, name := range strings.Split(*asFlag, ",") {
			topos = append(topos, strings.TrimSpace(name))
		}
	}
	start := time.Now()
	e, err := serve.New(serve.Config{
		Topos:         topos,
		Seed:          *seed,
		CacheEntries:  *cache,
		Check:         *check,
		DefaultScheme: *schm,
	})
	if err != nil {
		die(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		die(err)
	}
	fmt.Fprintf(os.Stderr, "rtrsimd: serving %s on http://%s (cache %d, check %v, startup %v)\n",
		strings.Join(e.Topologies(), ","), ln.Addr(), *cache, *check,
		time.Since(start).Round(time.Millisecond))

	srv := newServer(e.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		die(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "rtrsimd: drain: %v\n", err)
		}
		st := e.Stats()
		fmt.Fprintf(os.Stderr, "rtrsimd: interrupted; drained (%d queries: %d hits / %d misses, %d evictions, %d client errors)\n",
			st.Queries, st.CacheHits, st.CacheMisses, st.Evictions, st.ClientErrors)
		os.Exit(2)
	}
}

// Connection timeouts, so a client that stalls cannot hold a
// connection (and its goroutine) forever. They are constants, not
// flags: no deployment of this daemon needs different values. A
// request line plus headers is a few hundred bytes and a body at most
// 1 MiB; writeTimeout also covers the handler, so it leaves room for
// the largest batch on a 10^5-node world.
const (
	readHeaderTimeout = 2 * time.Second
	readTimeout       = 10 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "rtrsimd: %v\n", err)
	os.Exit(1)
}
