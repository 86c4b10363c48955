package obs

import (
	"expvar"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

var (
	publishOnce sync.Once
	publishedRg atomic.Pointer[Registry]
)

// PublishRegistry exposes reg as the expvar "sid" variable. expvar
// registration is global and permanent, so the variable is registered once
// and reads whatever registry was published last.
func PublishRegistry(reg *Registry) {
	if reg != nil {
		publishedRg.Store(reg)
	}
	publishOnce.Do(func() {
		expvar.Publish("sid", expvar.Func(func() any {
			return publishedRg.Load().Snapshot() // nil-safe: empty snapshot
		}))
	})
}

// RegisterDebug mounts the debug routes — /debug/vars always, and
// /debug/pprof/* only when enablePProf is set — onto an existing mux, so a
// server with its own API surface (the detection server) carries the
// diagnostics endpoints without binding a second port. pprof is opt-in for
// outward-facing servers: CPU and trace profiling are a denial-of-service
// surface on a multi-tenant box.
func RegisterDebug(mux *http.ServeMux, enablePProf bool) {
	mux.Handle("/debug/vars", expvar.Handler())
	if !enablePProf {
		return
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
