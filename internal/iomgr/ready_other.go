//go:build !unix

package iomgr

import "syscall"

// Off Unix every read or write of the socket takes the door.
type rawIO struct{}

func (*rawIO) bind(syscall.RawConn, bool) {}
func (*rawIO) try([]byte) (int, bool)     { return 0, false }
