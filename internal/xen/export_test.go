package xen

// Ticks reports how many sampling ticks the pCPU has taken, so the fleet
// benchmark can split a kernel's fired events by kind without a counter on
// the scheduling path.
func (p *PCPU) Ticks() uint64 { return p.ticks }
