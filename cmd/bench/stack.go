package main

import (
	"context"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/front"
	"repro/internal/serve"
)

// stack is the serving system under test: cmd/loadgen -selftest's
// topology booted in this process on real loopback TCP listeners, one
// frontd over two clusterd shards over the same two schedds, every
// knob at its default. The driver shares the process and its cores
// with the tiers.
type stack struct {
	frontURL  string
	client    *http.Client
	transport *http.Transport
	closers   []func()
}

// close tears the stack down in reverse order and waits for every
// listener goroutine to end.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// bootStack boots the three tiers. With a recorder, each tier's
// handler and outbound transport are wrapped so traced requests leave
// spans; without one the tiers run exactly as their daemons do.
func bootStack(ctx context.Context, rec *recorder, clients int) (*stack, error) {
	s := &stack{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	wrap := func(name spanName, h http.Handler) http.Handler {
		if rec == nil {
			return h
		}
		return rec.handler(name, h)
	}
	hop := func(name spanName) http.RoundTripper {
		if rec == nil {
			return nil // the tier's own default
		}
		return &tracingTransport{rec: rec, name: name, base: http.DefaultTransport}
	}

	var schedds []string
	for i := 0; i < 2; i++ {
		url, err := s.listen(wrap(spServeHandler, serve.New(serve.Config{}).Handler()))
		if err != nil {
			return nil, err
		}
		schedds = append(schedds, url)
	}
	var shards []string
	for i := 0; i < 2; i++ {
		c, err := cluster.New(cluster.Config{Backends: schedds, Transport: hop(spClusterHop)})
		if err != nil {
			return nil, err
		}
		c.Start(ctx)
		s.closers = append(s.closers, c.Close)
		url, err := s.listen(wrap(spClusterHandler, c.Handler()))
		if err != nil {
			return nil, err
		}
		shards = append(shards, url)
	}
	f, err := front.New(front.Config{Shards: shards, Transport: hop(spFrontHop)})
	if err != nil {
		return nil, err
	}
	f.Start(ctx)
	s.closers = append(s.closers, f.Close)
	if s.frontURL, err = s.listen(wrap(spFrontHandler, f.Handler())); err != nil {
		return nil, err
	}

	s.transport = &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	s.client = &http.Client{Transport: s.transport, Timeout: 60 * time.Second}
	s.closers = append(s.closers, s.transport.CloseIdleConnections)
	ok = true
	return s, nil
}

// listen mounts h on an ephemeral loopback port and returns its base
// URL; the closer it registers returns once Serve has.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// A listener that ends early shows as failed requests; the
		// error itself says no more than that.
		_ = hs.Serve(ln)
	}()
	s.closers = append(s.closers, func() {
		_ = hs.Close() // loopback connections, about to be abandoned anyway
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}
