// Command frontd is the sharded front tier: an HTTP daemon that
// consistent-hash-shards work items across a fleet of clusterd shards,
// sheds load beyond its admission caps with 429 + Retry-After, and
// re-routes work off a dead shard to its ring successors. See
// internal/front and FRONTIER.md.
//
// Examples:
//
//	frontd -addr :9900 -shards http://10.0.1.7:9090,http://10.0.1.8:9090
//	frontd -shards http://a:9090,http://b:9090,http://c:9090 \
//	    -admit-max 4096 -shard-inflight 512
//
//	curl -s localhost:9900/healthz
//	curl -s -X POST localhost:9900/v1/batch -d '{
//	  "requests": [
//	    {"algorithm": "lpt-norestriction",
//	     "instance": {"m": 4, "alpha": 1.5, "estimates": [5,3,8,2,7,4]}}
//	  ]
//	}'
//
// Streaming: POST /v1/stream takes newline-delimited schedule requests
// and emits one NDJSON result line per item in input order; items
// beyond the admission cap are shed with an in-band error line rather
// than buffered.
//
// The daemon drains in-flight work on SIGINT/SIGTERM (bounded by
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

	"repro/internal/front"
	"repro/internal/obs"
	"repro/internal/wire"
)

func main() {
	var cfg front.Config
	cfg.Tier.Flags(flag.CommandLine)
	up := &cfg.Tier.Upstream
	addr := flag.String("addr", ":9900", "listen address")
	shards := flag.String("shards", "", "comma-separated clusterd base URLs (required)")
	flag.IntVar(&cfg.AdmitMax, "admit-max", 1024, "global admission cap (items in flight)")
	flag.IntVar(&cfg.ShardInflight, "shard-inflight", 256, "per-shard in-flight item cap (0 or negative: 256; -no-shed disables)")
	flag.BoolVar(&cfg.DisableShedding, "no-shed", false, "disable admission control entirely")
	flag.DurationVar(&cfg.RetryAfterHint, "retry-after", time.Second, "Retry-After hint on shed responses")
	flag.IntVar(&up.Threshold, "fail-threshold", 3, "consecutive failures that mark a shard dead")
	flag.DurationVar(&up.BaseBackoff, "fail-base", 100*time.Millisecond, "first dead-shard window")
	flag.DurationVar(&up.MaxBackoff, "fail-max", 5*time.Second, "dead-shard backoff cap")
	flag.DurationVar(&up.ProbeInterval, "probe-interval", 500*time.Millisecond, "shard /healthz probe spacing")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	statsFlag := flag.Bool("stats", false, "print internal counters and timers to stderr on exit")
	flag.Parse()

	if *shards == "" {
		fmt.Fprintln(os.Stderr, "frontd: -shards is required")
		os.Exit(2)
	}
	cfg.Shards = wire.SplitURLs(*shards)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err := run(ctx, *addr, cfg, *drain, nil)
	if *statsFlag {
		fmt.Fprintln(os.Stderr, "--- frontd internal stats ---")
		if werr := obs.Write(os.Stderr); werr != nil {
			fmt.Fprintln(os.Stderr, "frontd: stats:", werr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "frontd:", err)
		os.Exit(1)
	}
}

// run is the daemon minus flags and signals: build the tier, probe its
// upstreams, and serve until ctx is cancelled, then drain in-flight
// work for at most drain (see wire.ServeUntil for ready).
func run(ctx context.Context, addr string, cfg front.Config, drain time.Duration, ready chan<- net.Addr) error {
	f, err := front.New(cfg)
	if err != nil {
		return err
	}
	f.Start(ctx)
	defer f.Close()
	return wire.ServeUntil(ctx, addr, f.Handler(), drain, ready)
}
