//go:build unix

package iomgr

import "syscall"

// rawIO makes one nonblocking read, or write, of the socket behind rc.
// Its callback is bound once, in NewConn, and reports through the
// struct, so a try allocates nothing. A Conn has one rawIO per
// direction, as it has one reader and one writer at a time.
type rawIO struct {
	rc    syscall.RawConn // nil: no file descriptor, so nothing is tried
	write bool
	call  func(fd uintptr) bool // r.do, bound once
	p     []byte
	n     int
	err   error
}

func (r *rawIO) bind(rc syscall.RawConn, write bool) {
	r.rc, r.write, r.call = rc, write, r.do
}

func (r *rawIO) do(fd uintptr) bool {
	if r.write {
		r.n, r.err = syscall.Write(int(fd), r.p)
	} else {
		r.n, r.err = syscall.Read(int(fd), r.p)
	}
	return true
}

// try reports false when there is no socket, or the call would wait,
// failed or read the end of the stream; the caller then takes the door.
func (r *rawIO) try(p []byte) (int, bool) {
	if r.rc == nil {
		return 0, false
	}
	r.p = p
	op := r.rc.Read
	if r.write {
		op = r.rc.Write
	}
	err := op(r.call)
	n := r.n
	r.p = nil // hold no reference to the caller's buffer
	if err != nil || r.err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}
