// Command clusterd is the cluster dispatcher: an HTTP proxy that
// fronts a pool of schedd backends, places each incoming work item on
// a replica set of backends (phase 1), and dispatches
// semi-clairvoyantly with hedging, circuit breaking, and re-dispatch
// (phase 2). See internal/cluster and CLUSTER.md.
//
// Examples:
//
//	clusterd -addr :9090 -backends http://10.0.0.7:8080,http://10.0.0.8:8080
//	clusterd -backends http://a:8080,http://b:8080,http://c:8080,http://d:8080 \
//	    -strategy group:2 -hedge-quantile 0.95
//
//	curl -s localhost:9090/healthz
//	curl -s -X POST localhost:9090/v1/batch -d '{
//	  "requests": [
//	    {"algorithm": "lpt-norestriction",
//	     "instance": {"m": 4, "alpha": 1.5, "estimates": [5,3,8,2,7,4]}}
//	  ]
//	}'
//
// Streaming: POST /v1/stream takes newline-delimited schedule requests
// and emits one NDJSON result line per item in input order, dispatching
// concurrently under a bounded window; ?strategy=none|all|group:k
// overrides the configured replication strategy per stream.
//
// The daemon drains in-flight batches on SIGINT/SIGTERM (bounded by
// -drain) before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	var cfg cluster.Config
	cfg.Tier.Flags(flag.CommandLine)
	up := &cfg.Tier.Upstream
	addr := flag.String("addr", ":9090", "listen address")
	backends := flag.String("backends", "", "comma-separated schedd base URLs (required)")
	flag.StringVar(&cfg.Strategy, "strategy", "all", "replication strategy: none, all, or group:k")
	flag.BoolVar(&cfg.DisableHedging, "no-hedge", false, "disable duplicate dispatch of slow items")
	flag.Float64Var(&cfg.HedgeQuantile, "hedge-quantile", 0.9, "latency quantile that triggers a hedge")
	flag.DurationVar(&cfg.HedgeMinDelay, "hedge-min-delay", 2*time.Millisecond, "hedge delay floor")
	flag.DurationVar(&cfg.HedgeMaxDelay, "hedge-max-delay", time.Second, "hedge delay cap")
	flag.IntVar(&up.Threshold, "breaker-threshold", 3, "consecutive failures that open a backend's breaker")
	flag.DurationVar(&up.BaseBackoff, "breaker-base", 100*time.Millisecond, "first breaker-open window")
	flag.DurationVar(&up.MaxBackoff, "breaker-max", 5*time.Second, "breaker backoff cap")
	flag.DurationVar(&up.ProbeInterval, "probe-interval", 500*time.Millisecond, "backend /healthz probe spacing")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	statsFlag := flag.Bool("stats", false, "print internal counters and timers to stderr on exit")
	flag.Parse()

	if *backends == "" {
		fmt.Fprintln(os.Stderr, "clusterd: -backends is required")
		os.Exit(2)
	}
	cfg.Backends = wire.SplitURLs(*backends)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := run(ctx, *addr, cfg, *drain, nil)
	if *statsFlag {
		fmt.Fprintln(os.Stderr, "--- clusterd internal stats ---")
		if werr := obs.Write(os.Stderr); werr != nil {
			fmt.Fprintln(os.Stderr, "clusterd: stats:", werr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "clusterd:", err)
		os.Exit(1)
	}
}

// run is the daemon minus flags and signals: build the tier, probe its
// upstreams, and serve until ctx is cancelled, then drain in-flight
// batches for at most drain (see wire.ServeUntil for ready).
func run(ctx context.Context, addr string, cfg cluster.Config, drain time.Duration, ready chan<- net.Addr) error {
	c, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	c.Start(ctx)
	defer c.Close()
	return wire.ServeUntil(ctx, addr, c.Handler(), drain, ready)
}
