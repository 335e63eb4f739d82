package sched

// ringQ is the run queue: a growable circular buffer of threads with
// O(1) push/pop at both ends and O(1) indexed access. It replaces the
// earlier nil-holding slice that had to be compacted periodically —
// the ring never leaves holes, so the owner's pop is branch-free and a
// thief can steal from the tail while the owner pops the head.
//
// The zero value is an empty queue.
type ringQ struct {
	buf  []*Thread
	head int // index of the oldest element
	n    int // number of elements
}

// Len returns the number of queued threads.
func (q *ringQ) Len() int { return q.n }

// grow doubles the buffer, re-linearizing the elements.
func (q *ringQ) grow() {
	newCap := 16
	if len(q.buf) > 0 {
		newCap = len(q.buf) * 2
	}
	buf := make([]*Thread, newCap)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

// pushBack appends t at the tail.
func (q *ringQ) pushBack(t *Thread) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = t
	q.n++
}

// popFront removes and returns the oldest element, or nil when empty.
func (q *ringQ) popFront() *Thread {
	if q.n == 0 {
		return nil
	}
	t := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return t
}

// popBack removes and returns the newest element, or nil when empty.
// Thieves steal from the tail so the victim's oldest (longest-waiting)
// threads keep their position at the head.
func (q *ringQ) popBack() *Thread {
	if q.n == 0 {
		return nil
	}
	i := (q.head + q.n - 1) % len(q.buf)
	t := q.buf[i]
	q.buf[i] = nil
	q.n--
	return t
}

// at returns the i-th element from the head (0-based) without removing
// it. Caller guarantees i < Len.
func (q *ringQ) at(i int) *Thread { return q.buf[(q.head+i)%len(q.buf)] }

// swap exchanges the i-th and j-th elements from the head; used by the
// random scheduler to move a uniformly chosen thread to the front
// before popping (the fair-shuffle policy).
func (q *ringQ) swap(i, j int) {
	a, b := (q.head+i)%len(q.buf), (q.head+j)%len(q.buf)
	q.buf[a], q.buf[b] = q.buf[b], q.buf[a]
}

// clear empties the queue, dropping references.
func (q *ringQ) clear() {
	for i := 0; i < q.n; i++ {
		q.buf[(q.head+i)%len(q.buf)] = nil
	}
	q.head, q.n = 0, 0
}
