package iomgr_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"asyncexc/internal/core"
	"asyncexc/internal/iomgr"
	"asyncexc/internal/sched"
)

// tcpPair returns the two ends of a loopback TCP connection, made with
// plain net calls so a test decides what is on the wire before a green
// thread looks.
func tcpPair(t *testing.T) (server, client net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if server, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close(); client.Close() })
	return server, client
}

// Like takeMVar on a full MVar (§5.3), a read that can finish now is no
// interruption point: under Block with a kill pending, ReadLine over a
// buffered line returns it. Over an empty socket the read would wait,
// so it raises the kill at once, before anything is launched.
func TestReadyReadLineIsNoInterruptionPoint(t *testing.T) {
	srv, cli := tcpPair(t)
	if _, err := cli.Write([]byte("one\ntwo\n")); err != nil {
		t.Fatal(err)
	}
	c := iomgr.NewConn(srv)
	var got []string
	var before sched.Stats
	record := func(s string) core.IO[core.Unit] {
		return core.Lift(func() core.Unit { got = append(got, s); return core.UnitValue })
	}
	m := core.Bind(core.NewEmptyMVar[core.Unit](), func(ready core.MVar[core.Unit]) core.IO[string] {
		return core.Bind(core.NewEmptyMVar[string](), func(done core.MVar[string]) core.IO[string] {
			child := core.Catch(core.Block(core.Seq(
				core.Bind(c.ReadLine(), record), // "one", before any kill
				core.Put(ready, core.UnitValue),
				core.ReplicateM_(100000, core.Return(core.UnitValue)), // the kill becomes pending
				core.Bind(c.ReadLine(), record),                       // "two", from the buffer
				core.Bind(core.SchedStats(), func(s sched.Stats) core.IO[core.Unit] {
					before = s
					return core.Return(core.UnitValue)
				}),
				core.Bind(c.ReadLine(), record), // nothing on the socket
				core.Put(done, "not interrupted"),
			)), func(e core.Exception) core.IO[core.Unit] {
				return core.Bind(core.SchedStats(), func(s sched.Stats) core.IO[core.Unit] {
					if s.PromisesCreated != before.PromisesCreated {
						t.Errorf("the waiting read was launched before the kill was raised")
					}
					return core.Put(done, e.ExceptionName())
				})
			})
			return core.Bind(core.Fork(child), func(tid core.ThreadID) core.IO[string] {
				return core.Then(core.Seq(core.Take(ready), core.KillThread(tid)), core.Take(done))
			})
		})
	})
	v, e, err := core.RunWith(realOpts(), m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if v != "ThreadKilled" || len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("got %q and lines %q, want ThreadKilled after [one two]", v, got)
	}
}

// The second line of a two-line segment, a 16-byte write and a close
// all finish in their own step: no await parks.
func TestReadyOpsTakeNoDoor(t *testing.T) {
	srv, cli := tcpPair(t)
	if _, err := cli.Write([]byte("a\nb\n")); err != nil {
		t.Fatal(err)
	}
	c := iomgr.NewConn(srv)
	reply := []byte("0123456789abcdef")
	m := core.Bind(c.ReadLine(), func(string) core.IO[sched.Stats] {
		return core.Bind(core.SchedStats(), func(before sched.Stats) core.IO[sched.Stats] {
			return core.Bind(c.ReadLine(), func(line string) core.IO[sched.Stats] {
				if line != "b" {
					t.Errorf("second line %q", line)
				}
				return core.Then(core.Seq(core.Void(c.Write(reply)), c.Close()),
					core.Bind(core.SchedStats(), func(after sched.Stats) core.IO[sched.Stats] {
						after.AwaitParks -= before.AwaitParks
						return core.Return(after)
					}))
			})
		})
	})
	d, e, err := core.RunWith(realOpts(), m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if d.AwaitParks != 0 {
		t.Fatalf("%d await parks for a buffered line, a 16-byte write and a close", d.AwaitParks)
	}
	if got, err := io.ReadAll(cli); err != nil || !bytes.Equal(got, reply) {
		t.Fatalf("client read %q, %v", got, err)
	}
}

// A write larger than the send buffer, to a reader that starts late and
// reads slowly, goes out partly at once and the rest through the door,
// every byte in order.
func TestWriteFallsBackToTheDoor(t *testing.T) {
	srv, cli := tcpPair(t)
	// Fixed 64 KB buffers hold far less than the write, whatever the
	// host's autotuning would allow.
	srv.(*net.TCPConn).SetWriteBuffer(64 << 10) //nolint:errcheck // the case only gets likelier
	cli.(*net.TCPConn).SetReadBuffer(64 << 10)  //nolint:errcheck
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i % 251)
	}
	got := make(chan []byte, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		var b bytes.Buffer
		buf := make([]byte, 1500)
		for {
			n, err := cli.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				got <- b.Bytes()
				return
			}
		}
	}()
	c := iomgr.NewConn(srv)
	m := core.Bind(c.Write(data), func(n int) core.IO[sched.Stats] {
		if n != len(data) {
			t.Errorf("Write returned %d of %d", n, len(data))
		}
		return core.Then(c.Close(), core.SchedStats())
	})
	st, e, err := core.RunWith(realOpts(), m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if st.AwaitParks == 0 {
		t.Errorf("a %d-byte write to a stalled reader never waited", len(data))
	}
	if b := <-got; !bytes.Equal(b, data) {
		t.Fatalf("reader got %d bytes, not the %d written in order", len(b), len(data))
	}
}

// A Conn over a net.Conn with no file descriptor (net.Pipe) has nothing
// to try without waiting: it works through the door.
func TestPipeConnTakesTheDoor(t *testing.T) {
	srv, cli := net.Pipe()
	defer cli.Close()
	echoed := make(chan string, 1)
	go func() {
		cli.Write([]byte("ping\n")) //nolint:errcheck // the program's read fails if this does
		b, _ := io.ReadAll(cli)
		echoed <- string(b)
	}()
	c := iomgr.NewConn(srv)
	m := core.Bind(c.ReadLine(), func(line string) core.IO[sched.Stats] {
		return core.Then(core.Seq(core.Void(c.WriteString(line+"!")), c.Close()), core.SchedStats())
	})
	st, e, err := core.RunWith(realOpts(), m)
	if err != nil || e != nil {
		t.Fatalf("run: %v %v", err, e)
	}
	if st.AwaitParks < 2 {
		t.Errorf("%d await parks, want the read and the write through the door", st.AwaitParks)
	}
	if s := <-echoed; s != "ping!" {
		t.Fatalf("peer read %q", s)
	}
}

// A ready round — a write that one nonblocking write finishes, then a
// ReadLine that one nonblocking read completes — allocates only what
// the scheduler and the line itself need: the socket's raw callbacks
// are bound once per Conn, not per try. That is 6 a round, where
// binding them per try made 12.
func TestReadyRoundAllocs(t *testing.T) {
	const rounds = 1000
	srv, cli := tcpPair(t)
	w, r := iomgr.NewConn(srv), iomgr.NewConn(cli)
	ping := []byte("ping\n")
	round := core.Bind(core.Then(core.Void(w.Write(ping)), r.ReadLine()), func(line string) core.IO[core.Unit] {
		if line != "ping" {
			t.Errorf("read %q", line)
		}
		return core.Return(core.UnitValue)
	})
	perRound := testing.AllocsPerRun(3, func() {
		if _, e, err := core.RunWith(realOpts(), core.ReplicateM_(rounds, round)); err != nil || e != nil {
			t.Fatalf("run: %v %v", err, e)
		}
	}) / rounds
	t.Logf("%.2f allocations a ready write and ReadLine", perRound)
	if perRound > 7 {
		t.Fatalf("%.2f allocations a ready write and ReadLine, ceiling 7", perRound)
	}
}
