package xmt

// ServePerWord turns run formation off (on == true) or back on for m's
// later spawns, so tests can hold runs to per-word service on the
// general path.
func ServePerWord(m *Machine, on bool) { m.perWord = on }
