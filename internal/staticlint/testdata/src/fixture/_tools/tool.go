// Package tools sits under a _-prefixed directory, which the go tool
// and the type checker ignore; the import still fires.
package tools

import "unsafe"

var Size = unsafe.Sizeof(0)
