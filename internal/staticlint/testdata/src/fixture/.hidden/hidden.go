package hidden

import "unsafe"

// Files under hidden directories are outside the tree: no finding.
var Size = unsafe.Sizeof(0)
