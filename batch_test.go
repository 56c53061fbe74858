package fuzzyknn_test

import (
	"testing"

	"fuzzyknn"
)

// TestParseFsyncPolicy pins the CLI names: two policies, with "batch" a
// legacy spelling of "always".
func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]fuzzyknn.FsyncPolicy{
		"":       fuzzyknn.FsyncAlways,
		"always": fuzzyknn.FsyncAlways,
		"BATCH":  fuzzyknn.FsyncAlways,
		"off":    fuzzyknn.FsyncOff,
	} {
		got, err := fuzzyknn.ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := fuzzyknn.ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if fuzzyknn.FsyncBatch != fuzzyknn.FsyncAlways || fuzzyknn.FsyncOff == fuzzyknn.FsyncAlways {
		t.Fatal("FsyncBatch must alias FsyncAlways, and FsyncOff differ from it")
	}
}
