package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRegisterDebugServesRegistry: /debug/vars carries the published
// registry's snapshot, and the pprof index lists the runtime's profiles.
func TestRegisterDebugServesRegistry(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve.test").Add(7)
	PublishRegistry(reg)
	mux := http.NewServeMux()
	RegisterDebug(mux, true)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, "serve.test") {
		t.Errorf("/debug/vars missing registry snapshot: %s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index missing profiles")
	}
}

func TestRegisterDebugPProfGating(t *testing.T) {
	for _, tc := range []struct {
		name       string
		pprof      bool
		wantStatus int
	}{
		{"pprof off", false, http.StatusNotFound},
		{"pprof on", true, http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mux := http.NewServeMux()
			RegisterDebug(mux, tc.pprof)
			srv := httptest.NewServer(mux)
			defer srv.Close()

			resp, err := http.Get(srv.URL + "/debug/vars")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("/debug/vars status = %d, want 200 regardless of pprof", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
				t.Errorf("/debug/vars content type = %q", ct)
			}

			for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.wantStatus {
					t.Errorf("%s status = %d, want %d", path, resp.StatusCode, tc.wantStatus)
				}
			}
		})
	}
}
