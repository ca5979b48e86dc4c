package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestLoadgenRejectsBadHealthz: /healthz is outside input. A server that is
// not ready (503) or answers without the geometry fields must make loadgen
// return an error naming what was wrong, not panic on a type assertion.
func TestLoadgenRejectsBadHealthz(t *testing.T) {
	for _, tc := range []struct {
		name    string
		status  int
		body    string
		wantErr string
	}{
		{"unavailable", http.StatusServiceUnavailable, `{"status":"draining"}`, "503"},
		{"empty object", http.StatusOK, `{}`, "input_volume"},
		{"no generation", http.StatusOK, `{"input_volume":8}`, "generation"},
		{"negative volume", http.StatusOK, `{"input_volume":-1,"generation":1}`, "input_volume -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body))
			}))
			defer srv.Close()
			err := loadgen(loadgenConfig{addr: srv.URL, duration: time.Millisecond, clients: 1})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("loadgen error = %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
}
