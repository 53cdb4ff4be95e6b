package opt

import "sync"

// Pending is an Estimate begun by StartEstimate: its Result at once
// when the memo or the trivial checks answered, else a solve running
// on a goroutine of its own until Wait joins it.
type Pending struct {
	res  Result
	call *pendingSolve // nil once res holds the answer
}

// pendingSolve is one memo miss solved off the caller's goroutine.
type pendingSolve struct {
	done     sync.WaitGroup
	key      cacheKey
	times    []float64
	m        int
	res      Result
	panicked any
}

// StartEstimate begins Estimate(times, m, exactLimit) so a caller can
// run other work beside the solve. It counts the call, hashes times and
// looks them up in the memo on the caller's goroutine; on a hit, or an
// instance Estimate answers without solving, the Result is ready and no
// goroutine starts. Only a memo miss starts one, which solves and
// stores the answer in the memo.
//
// times is read until Wait returns: the caller must not change it, nor
// hand it back to a pool, before then. Every StartEstimate needs a
// Wait, on every path out of the caller, so that no solve outlives the
// call that started it.
func StartEstimate(times []float64, m int, exactLimit int) Pending {
	res, key, ok := lookup(times, m, exactLimit)
	if ok {
		return Pending{res: res}
	}
	c := &pendingSolve{key: key, times: times, m: m}
	c.done.Add(1)
	go c.solve()
	return Pending{call: c}
}

func (c *pendingSolve) solve() {
	defer c.done.Done()
	defer func() {
		if r := recover(); r != nil {
			c.panicked = r
		}
	}()
	c.res = estimateUncached(c.times, c.m, c.key.exactLimit)
	cacheStore(c.key, c.times, c.res)
}

// Wait joins the solve and returns exactly the Result Estimate gives
// on the same arguments; a panic in the solve is raised again here, as
// par.Map raises a worker's. Wait may be called again, so a deferred
// Wait can join on every exit beside the one whose Result is used: a
// later call returns the first one's Result at once, or the zero Result
// after a first call that panicked.
func (p *Pending) Wait() Result {
	if c := p.call; c != nil {
		p.call = nil
		c.done.Wait()
		if c.panicked != nil {
			panic(c.panicked)
		}
		p.res = c.res
	}
	return p.res
}
