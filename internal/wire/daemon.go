package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"
)

// ServeUntil listens on addr and serves h until ctx is cancelled, then
// drains in-flight requests for at most drain. When ready is non-nil
// the bound address is sent on it once the listener is up (tests, the
// daemons' included, listen on port 0).
func ServeUntil(ctx context.Context, addr string, h http.Handler, drain time.Duration, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler: h,
		// Header reads are bounded independently of the request
		// deadline so idle connections cannot pin goroutines.
		ReadHeaderTimeout: 5 * time.Second,
	}
	if ready != nil {
		ready <- ln.Addr()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Detach from the cancelled signal context but keep its values:
	// the drain window must outlive the trigger that started it.
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// SplitURLs parses a comma-separated base-URL flag (-backends,
// -shards), dropping empty entries and trailing slashes so "url/" and
// "url" name the same daemon.
func SplitURLs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimRight(strings.TrimSpace(part), "/")
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
