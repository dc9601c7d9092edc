// Package nounsafe exercises the nounsafe analyzer: an unsafe import
// fires wherever the file sits in the tree, whether or not the type
// checker sees the file.
package nounsafe

import "unsafe"

// Size is planted: a type-checked file importing unsafe.
var Size = unsafe.Sizeof(0)
