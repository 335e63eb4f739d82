package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"asyncexc/internal/core"
	"asyncexc/internal/exc"
)

// running is a core.System performing one main action on its own
// goroutine — what httpd.Start does, plus a way to notice that the
// runtime ended by itself (httpd.Running keeps its done channel
// private).
type running struct {
	sys  *core.System
	done chan struct{} // closed when the runtime has ended
	died chan error    // then receives how it ended
	err  error
}

func launch(opts core.Options, prog core.IO[core.Unit]) *running {
	r := &running{sys: core.NewSystem(opts), done: make(chan struct{}), died: make(chan error, 1)}
	go func() {
		_, e, err := core.RunSystem(r.sys, prog)
		if err == nil && e != nil && !e.Eq(exc.ThreadKilled{}) {
			err = exc.AsError(e)
		}
		r.err = err
		close(r.done)
		r.died <- err
	}()
	return r
}

// kill throws ThreadKilled at the main thread — asynchronous exception
// as shutdown — and waits for the runtime to end.
func (r *running) kill() error {
	r.sys.KillMain()
	<-r.done
	return r.err
}

// sutMain is the child process: build the system the spec names, say
// ready, then serve the driver's commands until stop.
func sutMain() int {
	in := json.NewDecoder(bufio.NewReader(os.Stdin))
	out := json.NewEncoder(os.Stdout)
	var sp spec
	if err := in.Decode(&sp); err != nil {
		fmt.Fprintln(os.Stderr, "sut: reading spec:", err)
		return 1
	}
	if len(sp.CPUs) > 0 {
		// The driver pinned itself before it spawned us, so both the
		// affinity and the GOMAXPROCS we started with are the driver's.
		if err := pinThreads(sp.CPUs); err != nil {
			fmt.Fprintln(os.Stderr, "sut: pinning:", err)
			return 1
		}
		runtime.GOMAXPROCS(len(sp.CPUs))
	}
	if sp.Workload == "units" {
		return unitsMain(out, sp.UnitScale)
	}
	s, err := newSUT(sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sut:", err)
		return 1
	}
	rd := s.ready()
	send := func(r reply) bool {
		if err := out.Encode(r); err != nil {
			fmt.Fprintln(os.Stderr, "sut: writing reply:", err)
			return false
		}
		return true
	}
	if !send(reply{Ready: &rd}) {
		return 1
	}
	cmds := make(chan request)
	go func() {
		defer close(cmds)
		for {
			var r request
			if in.Decode(&r) != nil {
				return // the driver closed the pipe or died
			}
			cmds <- r
		}
	}()
	for {
		select {
		case err := <-s.exited():
			fmt.Fprintf(os.Stderr, "sut: %s: runtime ended by itself mid-run: %v\n", sp.Workload, err)
			return 1
		case r, ok := <-cmds:
			if !ok {
				return 1
			}
			switch r.Cmd {
			case "start":
				s.start()
				ok = send(reply{})
			case "tick":
				t := s.tick()
				ok = send(reply{Tick: &t})
			case "snap":
				sn := s.snapshot()
				ok = send(reply{Snap: &sn})
			case "stop":
				f := s.stop()
				send(reply{Final: &f})
				return 0
			default:
				ok = send(reply{Err: "unknown command " + r.Cmd})
			}
			if !ok {
				return 1
			}
		}
	}
}
