package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A request already a whole timeout late when its client frees up fails
// as a timeout without reaching the server, so a stall cannot stretch the
// run; requests on schedule are still sent.
func TestOpenLoopDropsRequestsATimeoutLate(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	s := &server{
		client: ts.Client(),
		models: []*httpModel{{name: "m", url: ts.URL, bodies: [][]byte{[]byte("{}")}}},
	}
	outs := s.openLoop([]time.Duration{-requestTimeout - time.Second, 0}, []pick{{}, {}}, false)
	if outs[0].kind != failTimeout {
		t.Errorf("overdue request: kind %q, want %q", outs[0].kind, failTimeout)
	}
	if outs[1].kind != fail503 {
		t.Errorf("due request: kind %q, want %q from the server", outs[1].kind, fail503)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1", got)
	}
}
