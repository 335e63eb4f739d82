package httpd

import (
	"fmt"
	"strconv"
	"testing"
	"time"
)

// Logged's lines are byte-identical to the fmt formats they replaced.
func TestLogLineMatchesFmt(t *testing.T) {
	reqs := []Request{{Method: "GET", Path: "/hello"}, {Method: "POST", Path: "/delay?ms=5"}, {}}
	took := []time.Duration{0, 499 * time.Microsecond, 500 * time.Microsecond, 1500 * time.Microsecond,
		42 * time.Millisecond, 2*time.Second + 345*time.Millisecond, time.Hour + 3*time.Minute}
	for _, r := range reqs {
		for _, d := range took {
			for _, status := range []int{0, 200, 404, 500, 503} {
				want := fmt.Sprintf("%s %s -> %d (%v)", r.Method, r.Path, status, d.Round(time.Millisecond))
				if got := logLine(r, strconv.Itoa(status), d); got != want {
					t.Errorf("got %q, want %q", got, want)
				}
			}
			want := fmt.Sprintf("%s %s -> interrupted (%v)", r.Method, r.Path, d.Round(time.Millisecond))
			if got := logLine(r, "interrupted", d); got != want {
				t.Errorf("got %q, want %q", got, want)
			}
		}
	}
}
