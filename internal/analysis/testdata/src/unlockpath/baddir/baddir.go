// Package baddir seeds malformed //sync: directives; the dedicated test
// (not the want harness — these diagnostics land on comment-only lines)
// asserts unlockpath reports both.
package baddir

//sync:sequential this kind does not exist

//sync:balanced

var placeholder = 0
