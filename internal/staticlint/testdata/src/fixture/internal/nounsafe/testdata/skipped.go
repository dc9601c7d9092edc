package skipped

import "unsafe"

// Files under testdata/ are outside the tree: no finding.
var Size = unsafe.Sizeof(0)
