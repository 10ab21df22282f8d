// The one worker pool every parallel operator runs on: the scan, the
// hash join (build, probe and second pass), the hyper-join and Gather
// keep only their work functions and end-of-stream metering; the
// goroutines, the first error and the fan-in stream live here. An
// Exchange runs its producers with run and records their first error
// in a pool too; its outputs are its own channels.
package exec

import (
	"sync"
	"sync/atomic"
)

// pool runs an operator's worker goroutines and carries their output
// batches to the consumer through one stream:
//
//   - start launches w workers, plus an optional then hook that runs
//     once every worker has exited and before the stream ends (the
//     spilling join's second pass); then is skipped after a failure;
//   - claim hands out task indices, checking the query's context first;
//   - fail records the first error; next surfaces it, at end of stream,
//     only after every worker (and then) has exited;
//   - send hands a batch to the consumer and counts its rows; the out
//     buffer of 2 × w batches bounds how far workers run ahead;
//   - close closes done, which stops every send, and drains and releases
//     the queued batches until the stream ends. It is idempotent.
//
// A pool that was never started is an empty stream, and close is a
// no-op on it (Close after a failed or skipped Open).
type pool struct {
	e      *Executor // claim's context; nil for a pool that never claims
	out    chan *Batch
	done   chan struct{}
	once   sync.Once
	task   atomic.Int64 // next unclaimed task index
	rows   atomic.Int64 // rows sent
	failed atomic.Bool
	mu     sync.Mutex
	err    error // first failure
}

func (p *pool) start(w int, work func(id int), then func()) {
	p.out = make(chan *Batch, 2*w)
	p.done = make(chan struct{})
	go func() {
		p.run(w, work)
		if then != nil && !p.failing() {
			then()
		}
		close(p.out)
	}()
}

// run runs work on w goroutines and returns once every one has exited.
func (p *pool) run(w int, work func(id int)) {
	var wg sync.WaitGroup
	wg.Add(w)
	for i := range w {
		go func() {
			defer wg.Done()
			work(i)
		}()
	}
	wg.Wait()
}

// claim returns the next of n task indices; false once they are all
// claimed, the pool has failed, or the query's context is done, which
// is recorded as the pool's error.
func (p *pool) claim(n int) (int, bool) {
	if cerr := p.e.ctxErr(); cerr != nil {
		p.fail(cerr)
		return 0, false
	}
	if p.failing() {
		return 0, false
	}
	i := int(p.task.Add(1) - 1)
	return i, i < n
}

// fail records err unless an earlier error was; workers stop doing real
// work once failing reports true.
func (p *pool) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.failed.Store(true)
}

func (p *pool) failing() bool { return p.failed.Load() }

func (p *pool) firstErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// send hands b to the consumer and counts its rows; it returns false,
// with b released, once close has run.
func (p *pool) send(b *Batch) bool {
	p.rows.Add(int64(b.Len()))
	select {
	case p.out <- b:
		return true
	case <-p.done:
		b.Release()
		return false
	}
}

// next returns the next batch, or nil and the first error once every
// worker has exited.
func (p *pool) next() (*Batch, error) {
	if p.out != nil {
		if b, ok := <-p.out; ok {
			return b, nil
		}
	}
	return nil, p.firstErr()
}

func (p *pool) close() {
	p.once.Do(func() {
		if p.done == nil {
			return
		}
		close(p.done)
		for b := range p.out {
			b.Release()
		}
	})
}
