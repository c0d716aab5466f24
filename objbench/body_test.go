package main

import (
	"errors"
	"net/http"
	"testing"
)

func TestCheckBodyAcceptsEveryWrittenVersion(t *testing.T) {
	const size = 4096
	p := make([]byte, size)
	for v := uint64(1); v <= 3; v++ {
		fillBody(p, 7, v)
		if err := checkBody(p, size, 7, 3); err != nil {
			t.Fatalf("version %d: %v", v, err)
		}
	}
}

func TestCheckBodyRejects(t *testing.T) {
	const size = 4096
	v1 := make([]byte, size)
	v2 := make([]byte, size)
	fillBody(v1, 3, 1)
	fillBody(v2, 3, 2)

	mixed := append([]byte(nil), v2[:size/2]...)
	mixed = append(mixed, v1[size/2:]...)
	stale := append([]byte(nil), v2[:headerLen]...)
	stale = append(stale, v1[headerLen:]...)
	other := make([]byte, size)
	fillBody(other, 4, 1)

	cases := map[string]struct {
		body   []byte
		latest uint64
	}{
		"mixed version": {mixed, 2},
		"stale prefix":  {stale, 2},
		"truncated":     {v2[:size-8], 2},
		"unwritten":     {v2, 1},
		"other key":     {other, 2},
		"zero body":     {make([]byte, size), 2},
		"extended":      {append(append([]byte(nil), v2...), 0, 0, 0, 0, 0, 0, 0, 0), 2},
	}
	for name, c := range cases {
		if err := checkBody(c.body, size, 3, c.latest); !errors.Is(err, errBody) {
			t.Errorf("%s: accepted (err %v)", name, err)
		}
	}
}

// Each rejected reply counts once as a failure against the attempts.
func TestTallyCountsFailures(t *testing.T) {
	const size = 4096
	good := make([]byte, size)
	fillBody(good, 1, 1)
	v2 := make([]byte, size)
	fillBody(v2, 1, 2)
	mixed := append(append([]byte(nil), good[:size/2]...), v2[size/2:]...)

	var tl tally
	tl.getReply(http.StatusOK, good, nil, size, 1, 2)
	tl.getReply(http.StatusOK, mixed, nil, size, 1, 2)
	tl.getReply(http.StatusOK, good[:size-64], nil, size, 1, 2)
	tl.getReply(http.StatusServiceUnavailable, nil, nil, size, 1, 2)
	tl.getReply(0, nil, errors.New("connection reset"), size, 1, 2)
	if tl.attempted != 5 || tl.failed != 4 || tl.mismatched != 2 {
		t.Fatalf("attempted %d failed %d mismatched %d, want 5/4/2", tl.attempted, tl.failed, tl.mismatched)
	}
}
