// Command sidserve runs the SID detection service: a multi-tenant HTTP
// server where each tenant is one surveillance field. Tenants are created
// from the library's Config JSON, fed accelerometer chunks as SIDBNDL1
// bundles over POST, and stream their journal and detections back as
// NDJSON.
//
//	sidserve -addr :8080
//	sidserve -addr :8080 -workers 4 -max-tenants 2048
//
// The API is documented in docs/SERVING.md. The process also serves
// /debug/vars (with the server registry published as the expvar "sid"
// variable) on the same address, plus /debug/pprof when -pprof is given.
// SIGINT/SIGTERM drain every tenant before exit.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:8080", "listen address")
		workers    = flag.Int("workers", 0, "concurrent pipeline slots (0 = GOMAXPROCS)")
		maxTenants = flag.Int("max-tenants", 0, "tenant cap (0 = default 4096)")
		queue      = flag.Int("queue", 0, "default per-tenant ingest queue depth in chunks (0 = default 4)")
		pprof      = flag.Bool("pprof", false, "expose /debug/pprof (off by default: profiling is a DoS surface)")
	)
	flag.Parse()
	if err := run(*addr, serve.Config{
		Workers:      *workers,
		MaxTenants:   *maxTenants,
		DefaultQueue: *queue,
		PProf:        *pprof,
	}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(addr string, cfg serve.Config) error {
	srv := serve.New(cfg)
	obs.PublishRegistry(srv.Registry())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("sidserve: listen %s: %w", addr, err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Printf("sidserve: listening on %s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("sidserve: %v, draining tenants\n", s)
	case err := <-errc:
		srv.Close()
		return fmt.Errorf("sidserve: serve: %w", err)
	}
	_ = hs.Close() // stop accepting; event streams unblock via request contexts
	srv.Close()    // drain every tenant synchronously
	fmt.Println("sidserve: drained, bye")
	return nil
}
