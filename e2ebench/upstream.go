package main

import (
	"io"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync/atomic"
	"time"
)

// upstreamTracer is the traced run's proxy transport. It forwards every
// round trip to http.DefaultTransport — the transport a ProxyConfig with
// a nil Transport uses — and counts on the way: upstream requests and
// their time from RoundTrip to body close (the span of the proxy's
// app_thread stage it sits in), /admin/probe round trips from the
// prober, which shares the transport, and connections dialled rather
// than reused.
type upstreamTracer struct {
	next http.RoundTripper

	requests atomic.Uint64
	nanos    atomic.Int64
	probes   atomic.Uint64
	newConns atomic.Uint64
}

func newUpstreamTracer() *upstreamTracer {
	return &upstreamTracer{next: http.DefaultTransport}
}

func (t *upstreamTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			t.newConns.Add(1)
		}
	}}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	resp, err := t.next.RoundTrip(req)
	if strings.HasPrefix(req.URL.Path, "/admin/probe") {
		t.probes.Add(1)
		return resp, err
	}
	if err != nil {
		t.done(start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: t, start: start}
	return resp, nil
}

func (t *upstreamTracer) done(start time.Time) {
	t.requests.Add(1)
	t.nanos.Add(int64(time.Since(start)))
}

// upstreamCounts is a reading of the tracer's counters.
type upstreamCounts struct {
	requests, probes, newConns uint64
	nanos                      int64
}

func (t *upstreamTracer) counts() upstreamCounts {
	return upstreamCounts{
		requests: t.requests.Load(),
		probes:   t.probes.Load(),
		newConns: t.newConns.Load(),
		nanos:    t.nanos.Load(),
	}
}

// since returns the counts accumulated after an earlier reading.
func (c upstreamCounts) since(earlier upstreamCounts) upstreamCounts {
	return upstreamCounts{
		requests: c.requests - earlier.requests,
		probes:   c.probes - earlier.probes,
		newConns: c.newConns - earlier.newConns,
		nanos:    c.nanos - earlier.nanos,
	}
}

// meanUS is the mean upstream time of non-probe requests.
func (c upstreamCounts) meanUS() float64 {
	if c.requests == 0 {
		return 0
	}
	return float64(c.nanos) / float64(c.requests) / 1e3
}

// timedBody ends the upstream timing when the proxy closes the body.
type timedBody struct {
	io.ReadCloser
	t      *upstreamTracer
	start  time.Time
	closed atomic.Bool
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.closed.CompareAndSwap(false, true) {
		b.t.done(b.start)
	}
	return err
}
