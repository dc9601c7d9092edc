//go:build fixturetag

package nounsafe

import "unsafe"

// Tagged is outside the default build, so the type checker skips this
// file; the import still fires.
var Tagged = unsafe.Sizeof(int32(0))
