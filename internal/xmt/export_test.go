package xmt

// Test-only accessors. DisableWindowWidening switches a machine onto the
// conservative fixed-window reference driver, so external differential
// tests (widen_test.go) can assert the adaptive driver is
// result-identical end to end.
func DisableWindowWidening(m *Machine) { m.eng.WidenWindows = false }
