package serve

import (
	"container/heap"
	"errors"
	"sync"
)

// ErrQueueFull is the load-shedding signal: the bounded queue is at
// capacity and the submission was refused. The HTTP layer maps it to
// 429 + Retry-After; the client owns the retry.
var ErrQueueFull = errors.New("serve: queue full")

// ErrQueueClosed reports a push or pop against a drained queue.
var ErrQueueClosed = errors.New("serve: queue closed")

// queue is the bounded prioritized job queue. Ordering is by descending
// Priority with FIFO tie-break (the submission sequence number), so one
// noisy high-priority client cannot reorder peers and low-priority work
// is never starved among equals. Capacity is hard: a full queue sheds
// instead of growing, which keeps the service's memory bounded no matter
// the offered load.
//
// notify is a capacity-1 wake signal: Push nudges it, Pop re-nudges it
// whenever it takes a job and leaves more behind, so one lost wakeup can
// never strand work while a worker sleeps. Canceled jobs are removed
// lazily: Pop skips any job whose state moved off queued while it waited.
type queue struct {
	mu     sync.Mutex
	heap   jobHeap
	limit  int
	closed bool
	notify chan struct{}
}

func newQueue(limit int) *queue {
	if limit < 1 {
		limit = 1
	}
	return &queue{limit: limit, notify: make(chan struct{}, 1)}
}

// Push enqueues a job, shedding with ErrQueueFull at capacity. force
// bypasses the capacity check — used only for re-admitting jobs the
// service already accepted (preemption requeues, spooled jobs), so intake
// stays bounded while admitted work can always come back.
func (q *queue) Push(j *Job, force bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if !force && q.heap.Len() >= q.limit {
		return ErrQueueFull
	}
	heap.Push(&q.heap, j)
	q.nudge()
	return nil
}

// nudge wakes one parked Pop. Callers hold q.mu.
func (q *queue) nudge() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Pop blocks until a job is available or stop is closed. Jobs whose
// state moved off queued while they waited (client cancel, drain spool)
// are skipped. Returns nil when stopping or closed-and-empty.
func (q *queue) Pop(stop <-chan struct{}) *Job {
	for {
		// Honor stop before taking new work: once a drain begins, backlog
		// belongs to the spool, not to a worker racing the shutdown.
		select {
		case <-stop:
			return nil
		default:
		}
		q.mu.Lock()
		var j *Job
		if q.heap.Len() > 0 {
			j = heap.Pop(&q.heap).(*Job)
			if q.heap.Len() > 0 {
				q.nudge() // more work behind this one: keep the wake chain alive
			}
		}
		closed := q.closed
		q.mu.Unlock()
		if j != nil {
			if j.State() != StateQueued {
				continue // lazily dropped
			}
			return j
		}
		if closed {
			return nil
		}
		select {
		case <-stop:
			return nil
		case <-q.notify:
		}
	}
}

// Len returns the number of queued jobs (including lazily-dropped ones
// not yet popped).
func (q *queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.heap.Len()
}

// Close refuses further pushes and drains the backlog: every job still
// in the heap is returned so the drain path can spool it.
func (q *queue) Close() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	out := make([]*Job, 0, q.heap.Len())
	for q.heap.Len() > 0 {
		j := heap.Pop(&q.heap).(*Job)
		if j.State() == StateQueued {
			out = append(out, j)
		}
	}
	return out
}

// jobHeap orders by priority (descending), then submission sequence
// (ascending).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(a, b int) bool {
	if h[a].Spec.Priority != h[b].Spec.Priority {
		return h[a].Spec.Priority > h[b].Spec.Priority
	}
	return h[a].seq < h[b].seq
}
func (h jobHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
