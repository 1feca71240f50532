package rec_test

import (
	"errors"
	"testing"

	"vcmt/internal/ckpt"
	"vcmt/internal/graph"
	"vcmt/internal/ooc"
	"vcmt/internal/rec"
	"vcmt/internal/wire"
)

// TestFormatSentinelsWrapErrCorrupt: every format's corruption sentinel
// wraps the root one, so each rejection a format's tests check with its
// own ErrCorrupt is also a rec.ErrCorrupt.
func TestFormatSentinelsWrapErrCorrupt(t *testing.T) {
	for _, err := range []error{wire.ErrCorrupt, wire.ErrVersion, ooc.ErrCorrupt, ooc.ErrVersion, ckpt.ErrCorrupt, graph.ErrCorrupt} {
		if !errors.Is(err, rec.ErrCorrupt) {
			t.Errorf("%v does not wrap rec.ErrCorrupt", err)
		}
	}
}
