//go:build unix

package iomgr

import "syscall"

// tryRaw makes one nonblocking read, or write, of the socket behind rc.
// When there is no socket, or the call would wait, failed or read the
// end of the stream, it reports false and the caller takes the door.
func tryRaw(rc syscall.RawConn, p []byte, write bool) (n int, ok bool) {
	if rc == nil {
		return 0, false
	}
	op, call := rc.Read, syscall.Read
	if write {
		op, call = rc.Write, syscall.Write
	}
	var err error
	if op(func(fd uintptr) bool { n, err = call(int(fd), p); return true }) != nil || err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}
