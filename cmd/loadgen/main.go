// Command loadgen drives sustained load against a serving tier
// (frontd, clusterd, or schedd) and prints a machine-readable JSON
// report — throughput, latency quantiles, shed rate — to stdout. See
// internal/loadgen and FRONTIER.md.
//
//	loadgen -url http://localhost:9900 -requests 2000 -workers 16
//
// The loop is closed: -workers requests stay in flight until -requests
// complete (sustainable-capacity measurement), issuing a deterministic
// request stream from -seed. It is a smoke test and a capacity probe,
// not the benchmark: latency under arrivals — an absolute Poisson
// schedule, timed from the due time — is cmd/bench's serve-open
// workload, which boots this same stack.
//
// -selftest boots a full in-process tier — two schedd instances, two
// clusterd shards over them, one frontd over the shards — and runs the
// configured load against it, so the whole stack is exercised with no
// external setup:
//
//	loadgen -selftest -requests 200 -workers 8
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/front"
	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/wire"
)

func main() {
	var (
		url       = flag.String("url", "", "target base URL (required unless -selftest)")
		workers   = flag.Int("workers", 8, "requests kept in flight")
		requests  = flag.Int("requests", 0, "total request count (required)")
		seed      = flag.Uint64("seed", 1, "deterministic request-stream seed")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		algorithm = flag.String("algorithm", "lpt-norestriction", "algorithm each request asks for")
		machines  = flag.Int("machines", 4, "machines per generated instance")
		tasks     = flag.Int("tasks", 6, "tasks per generated instance")
		selftest  = flag.Bool("selftest", false, "boot an in-process schedd→clusterd→frontd tier and load it")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	target := *url
	if *selftest {
		tier, err := bootTier(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen: selftest tier:", err)
			os.Exit(1)
		}
		defer tier.close()
		target = tier.frontURL
		fmt.Fprintln(os.Stderr, "loadgen: selftest tier up at", target)
	}
	if target == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -url is required (or pass -selftest)")
		os.Exit(2)
	}

	rep, err := loadgen.Run(ctx, loadgen.Config{
		URL:       target,
		Workers:   *workers,
		Requests:  *requests,
		Seed:      *seed,
		Timeout:   *timeout,
		Algorithm: *algorithm,
		Machines:  *machines,
		Tasks:     *tasks,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen: report:", err)
		os.Exit(1)
	}
	// Shedding is a measured outcome; errors mean the tier (or the run
	// configuration) is broken. Fail so smoke invocations gate on it.
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d request(s) errored (first: %s)\n", rep.Errors, rep.FirstError)
		os.Exit(1)
	}
}

// tier is the in-process selftest stack: every daemon mounted on its
// own loopback listener, torn down in reverse order.
type tier struct {
	frontURL string
	closers  []func()
}

func (t *tier) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
}

// bootTier assembles schedd ×2 → clusterd ×2 → frontd ×1 on loopback
// listeners: each clusterd shard replicates over both schedd backends,
// and the front consistent-hash-shards across the two clusterds.
func bootTier(ctx context.Context) (*tier, error) {
	t := &tier{}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()

	var schedds []string
	for i := 0; i < 2; i++ {
		url, err := t.listen(serve.New(serve.Config{}).Handler())
		if err != nil {
			return nil, err
		}
		schedds = append(schedds, url)
	}

	var shards []string
	for i := 0; i < 2; i++ {
		c, err := cluster.New(cluster.Config{Backends: schedds})
		if err != nil {
			return nil, err
		}
		c.Start(ctx)
		t.closers = append(t.closers, c.Close)
		url, err := t.listen(c.Handler())
		if err != nil {
			return nil, err
		}
		shards = append(shards, url)
	}

	f, err := front.New(front.Config{Shards: shards})
	if err != nil {
		return nil, err
	}
	f.Start(ctx)
	t.closers = append(t.closers, f.Close)
	if t.frontURL, err = t.listen(f.Handler()); err != nil {
		return nil, err
	}
	ok = true
	return t, nil
}

// listen mounts h on an ephemeral loopback port through the daemons'
// own serve loop and returns its base URL. The tier owns the server's
// lifetime: it runs until tier.close stops and drains it.
func (t *tier) listen(h http.Handler) (string, error) {
	ctx, stop := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- wire.ServeUntil(ctx, "127.0.0.1:0", h, time.Second, ready) }()
	select {
	case addr := <-ready:
		t.closers = append(t.closers, func() { stop(); <-done })
		return "http://" + addr.String(), nil
	case err := <-done:
		stop()
		return "", err
	}
}
