// Package stream provides the queue primitives that carry event and data
// streams between AnyComponents: MPSC is an unbounded lock-free
// multi-producer queue used for AC inboxes, and Mailbox adds blocking
// receive on top of it. (The paper's prototype uses Folly's SPSC queue
// for local data beaming; here every local hop rides a Mailbox.)
package stream

import (
	"runtime"
	"sync/atomic"
)

// Mailbox is an unbounded multi-producer inbox with blocking receive,
// built from an MPSC queue plus a wakeup channel. It is the delivery
// mechanism for AC event and data streams in the goroutine runtime: many
// upstream components push, one AC goroutine drains. Batched variants
// (SendBatch/RecvBatch) amortize the per-message node and wakeup cost.
//
// Close is idempotent and may be called by any goroutine. Close versus
// Send is deterministic (drain-or-reject): every Send/SendBatch that
// returns true is visible to the receiver before Recv/RecvBatch reports
// closed — the final drain waits out producers that passed the closed
// check before Close landed — and every Send after that returns false
// and delivers nothing. No element is ever stranded in the queue.
type Mailbox[T any] struct {
	q      *MPSC[T]
	wake   chan struct{}
	closed atomic.Bool
	// sending counts producers inside Send/SendBatch. The closed-side
	// drain waits for it to reach zero, which makes close-vs-push
	// deterministic: a producer that saw closed==false completes its
	// push before the final drain, one that didn't rejects.
	sending atomic.Int64
}

// NewMailbox returns an empty open mailbox.
func NewMailbox[T any]() *Mailbox[T] {
	return &Mailbox[T]{q: NewMPSC[T](), wake: make(chan struct{}, 1)}
}

// Send enqueues v and wakes the receiver. Send on a closed mailbox is a
// no-op (the element is dropped), mirroring delivery to a failed AC.
// A true return guarantees the receiver observes v before it observes
// the mailbox as closed-and-drained.
func (m *Mailbox[T]) Send(v T) bool {
	m.sending.Add(1)
	if m.closed.Load() {
		m.sending.Add(-1)
		return false
	}
	m.q.Push(v)
	m.sending.Add(-1)
	m.signal()
	return true
}

// SendBatch enqueues all of vs in order with one queue publish and one
// wakeup — the per-message cost of the event plane amortized across a
// chunk. vs is copied; the caller may reuse it immediately. Like Send,
// it is all-or-nothing: true means every element is visible to the
// receiver before closed-and-drained, false (closed) means none are.
func (m *Mailbox[T]) SendBatch(vs []T) bool {
	if len(vs) == 0 {
		return true
	}
	m.sending.Add(1)
	if m.closed.Load() {
		m.sending.Add(-1)
		return false
	}
	m.q.PushBatch(vs)
	m.sending.Add(-1)
	m.signal()
	return true
}

func (m *Mailbox[T]) signal() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// TryRecv returns the next element without blocking.
func (m *Mailbox[T]) TryRecv() (T, bool) { return m.q.Pop() }

// Recv blocks until an element is available or the mailbox is closed and
// drained. The second result is false only in the closed-and-drained case.
func (m *Mailbox[T]) Recv() (T, bool) {
	for {
		if v, ok := m.q.Pop(); ok {
			return v, true
		}
		if m.closed.Load() {
			// Final drain: wait out producers that passed the closed
			// check before Close landed (their pushes are part of the
			// drain-or-reject guarantee), then take what they left.
			m.awaitSenders()
			if v, ok := m.q.Pop(); ok {
				return v, true
			}
			var zero T
			return zero, false
		}
		<-m.wake
	}
}

// RecvBatch blocks until at least one element is available, moves up to
// len(buf) elements into buf, and returns the count. It returns (0,
// false) only once the mailbox is closed and fully drained. One wakeup
// can deliver a whole chunk — the consumer-side half of the amortized
// event plane.
func (m *Mailbox[T]) RecvBatch(buf []T) (int, bool) {
	for {
		if n := m.q.PopMany(buf); n > 0 {
			return n, true
		}
		if m.closed.Load() {
			m.awaitSenders()
			if n := m.q.PopMany(buf); n > 0 {
				return n, true
			}
			return 0, false
		}
		<-m.wake
	}
}

// awaitSenders spins until no producer is mid-push. Only called after
// closed is set; the window between a producer's closed check and its
// push is a handful of instructions, so this never spins long.
func (m *Mailbox[T]) awaitSenders() {
	for m.sending.Load() > 0 {
		runtime.Gosched()
	}
}

// Len returns the approximate queue length.
func (m *Mailbox[T]) Len() int { return m.q.Len() }

// Close marks the mailbox closed and wakes the receiver. It is
// idempotent. Sends that already returned true remain receivable
// (drain-or-reject; see the type comment).
func (m *Mailbox[T]) Close() {
	if m.closed.CompareAndSwap(false, true) {
		m.signal()
	}
}

// Closed reports whether Close was called.
func (m *Mailbox[T]) Closed() bool { return m.closed.Load() }
