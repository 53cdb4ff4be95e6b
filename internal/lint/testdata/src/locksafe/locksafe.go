// Package locksafe exercises the lock-discipline analyzer: unlocks
// missing on some return path, defer and all-paths release, RWMutex
// read locks, blocking operations while holding a lock (directly and
// through a cross-package call), the control-flow shapes the CFG has
// to thread a lock state through, and the goto bail-out.
package locksafe

import (
	"errors"
	"sync"
	"time"

	"locksafedep"
)

var errOops = errors.New("oops")

type counter struct {
	mu sync.Mutex
	n  int
}

// missingUnlockOnError forgets the Unlock on the early return.
func missingUnlockOnError(c *counter, fail bool) error {
	c.mu.Lock() // want "locksafe: c.mu.Lock\\(\\) is not released on every return path"
	if fail {
		return errOops
	}
	c.n++
	c.mu.Unlock()
	return nil
}

// deferUnlockClean releases by defer.
func deferUnlockClean(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// inlineUnlockClean releases explicitly on every path.
func inlineUnlockClean(c *counter, fail bool) error {
	c.mu.Lock()
	if fail {
		c.mu.Unlock()
		return errOops
	}
	c.n++
	c.mu.Unlock()
	return nil
}

type registry struct {
	mu sync.RWMutex
	m  map[string]int
}

// rlockLeak forgets the RUnlock on the miss path; read locks are
// tracked separately from write locks.
func rlockLeak(r *registry, key string) (int, bool) {
	r.mu.RLock() // want "locksafe: r.mu.RLock\\(\\) is not released on every return path"
	if v, ok := r.m[key]; ok {
		r.mu.RUnlock()
		return v, true
	}
	return 0, false
}

// sendWhileLocked performs a channel send with the mutex held.
func sendWhileLocked(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch <- c.n // want "locksafe: potentially blocking operation .channel send. while c.mu is locked"
}

// sleepWhileLocked holds the mutex across a sleep.
func sleepWhileLocked(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(time.Millisecond) // want "locksafe: potentially blocking operation .time.Sleep. while c.mu is locked"
}

// blockingCrossPackage reaches a channel send two calls away, in
// another package.
func blockingCrossPackage(c *counter, ch chan int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	locksafedep.Relay(ch, c.n) // want "locksafe: potentially blocking operation .call to Relay"
}

// pureCallWhileLocked calls a summarized non-blocking helper: fine.
func pureCallWhileLocked(c *counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n = locksafedep.Pure(c.n)
}

// sendAfterUnlock releases first, then blocks: fine.
func sendAfterUnlock(c *counter, ch chan int) {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	ch <- n
}

// selectAfterUnlock exercises the select CFG shape outside any lock.
func selectAfterUnlock(c *counter, a, b chan int) {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	select {
	case v := <-a:
		_ = v
	case b <- n:
	}
}

// labeledLoops threads the held-state through labeled break and
// continue before a straightforward locked section.
func labeledLoops(c *counter, xs []int) int {
	total := 0
outer:
	for i := 0; i < len(xs); i++ {
		for _, v := range xs {
			if v < 0 {
				continue outer
			}
			if v == 99 {
				break outer
			}
			total += v
		}
	}
	c.mu.Lock()
	c.n = total
	c.mu.Unlock()
	return total
}

// switchFallthrough holds the lock across a switch with fallthrough:
// every arm reaches the Unlock.
func switchFallthrough(c *counter, k int) {
	c.mu.Lock()
	switch k {
	case 0:
		c.n++
		fallthrough
	case 1:
		c.n += 2
	default:
		c.n = 0
	}
	c.mu.Unlock()
}

// suppressedHandoff shows the escape hatch.
func suppressedHandoff(c *counter, fail bool) {
	//lint:ignore locksafe fixture: the unlock happens in a callback the analyzer cannot see
	c.mu.Lock()
	if fail {
		return
	}
	c.mu.Unlock()
}

// gotoBailout: goto is outside the CFG builder's model, so the whole
// function is skipped rather than misjudged.
func gotoBailout(c *counter, fail bool) {
	c.mu.Lock()
	if fail {
		goto out
	}
	c.mu.Unlock()
out:
	return
}
