//go:build !unix

package iomgr

import "syscall"

// Off Unix every read or write of the socket takes the door.
func tryRaw(syscall.RawConn, []byte, bool) (int, bool) { return 0, false }
