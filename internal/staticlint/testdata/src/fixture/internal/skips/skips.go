// Package skips exercises the skipref analyzer.
package skips

type tb struct{}

func (tb) Skip(string) {}

// F calls a Skip method outside a _test.go file: out of scope.
func F() {
	var t tb
	t.Skip("whatever")
}
