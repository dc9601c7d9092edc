package nounsafe

import (
	"testing"
	"unsafe"
)

// Test files are parsed but never type-checked; the import still fires.
func TestSize(t *testing.T) {
	if Size != unsafe.Sizeof(0) {
		t.Fatal("size")
	}
}
