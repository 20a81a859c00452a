package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestUpstreamTracerForwardsToDefaultTransport(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Path", r.URL.Path)
		_, _ = io.WriteString(w, "payload:"+r.URL.Path)
	}))
	defer srv.Close()

	tr := newUpstreamTracer()
	if tr.next != http.DefaultTransport {
		t.Fatal("tracer does not wrap http.DefaultTransport")
	}
	get := func(rt http.RoundTripper, path string) (int, string, string) {
		resp, err := (&http.Client{Transport: rt}).Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("X-Path"), string(body)
	}
	for _, path := range []string{"/", "/admin/probe"} {
		ds, dh, db := get(http.DefaultTransport, path)
		ts, th, tb := get(tr, path)
		if ds != ts || dh != th || db != tb {
			t.Errorf("%s: traced (%d %q %q) differs from direct (%d %q %q)", path, ts, th, tb, ds, dh, db)
		}
	}
	got := tr.counts()
	if got.requests != 1 || got.probes != 1 {
		t.Errorf("counted %d upstream requests and %d probes, want 1 and 1", got.requests, got.probes)
	}
	if got.meanUS() <= 0 {
		t.Errorf("mean upstream time %v, want positive", got.meanUS())
	}
}
