package driver

import "cloudmonatt/internal/tpm"

// LogMemory is what a verifier remembers of one tpm-backend server's event
// log between startup-integrity appraisals, so that evidence need carry only
// the events it has not replayed yet. A TPM's log is append-only and grows
// by one entry per VM the server ever launched; without a memory every
// appraisal moves, hashes and replays all of it.
//
// The zero value remembers nothing, and an appraisal with nothing remembered
// is the appraisal of a whole log. The owner keeps one LogMemory per
// registered server and attestation key under a lock of its own. Each
// appraisal takes a copy with For, asks the server for its log from the
// copy's Count on, hands the copy to AppraiseStartup in Refs, and gives it
// back with Land. AppraiseStartup moves the copy forward only with a healthy
// verdict, after every check has passed; an unhealthy verdict leaves it as it
// was. Nothing here is evidence: it is never persisted, exported or signed,
// and losing it costs one exchange from event 0.
type LogMemory struct {
	// Count is how many events of the log have been replayed and Bank the
	// PCR values they replay to.
	Count int
	Bank  [tpm.NumPCRs][32]byte
	// Miss is set on an appraisal's copy when the carried events could not
	// be judged on top of it, and names why: "replay-mismatch" when they do
	// not lead from Bank to the quoted values (the server rebooted, ignored
	// or misread where it was asked from, or the memory is not of its log),
	// "entry-unknown" when neither they nor the memory hold the attested
	// VM's image entry (the VM's records came from another shard). The
	// verdict beside a miss is unhealthy, which is right for a caller that
	// stops there but may be the memory's fault: one that can ask again asks
	// from event 0 and appraises that with nothing remembered. Only a whole
	// log's failure is a verdict about the server. A memory with Count 0
	// never misses.
	Miss string

	// from is the Count of the memory a copy was taken from.
	from int
	// images holds, by vid, the vm-image entry the replayed events carried
	// for VMs the owner asked Land to keep.
	images map[string]imageSeen
}

const (
	missReplay = "replay-mismatch"
	missEntry  = "entry-unknown"
)

// imageSeen is what the replayed events said of one VM's image: the digest
// of its entry and whether a later entry for the same vid differed from it.
// A conflict can never match an expected image, whichever it is.
type imageSeen struct {
	digest   [32]byte
	conflict bool
}

// For returns the copy one appraisal of vid works on: the replayed count
// and bank, and of the image entries only vid's.
func (m *LogMemory) For(vid string) *LogMemory {
	a := &LogMemory{Count: m.Count, Bank: m.Bank, from: m.Count}
	if seen, ok := m.images[vid]; ok {
		a.images = map[string]imageSeen{vid: seen}
	}
	return a
}

// Land folds what an appraisal learned on its copy a back into m, which
// other appraisals may have moved since For. m only ever moves forward: a
// copy that replayed further than m has takes it there, one that did not
// still contributes the image entries it met, and of those only the VMs
// keep accepts, which bounds m by the VMs its owner holds records for. A
// copy that missed with "replay-mismatch" says m does not lead to what the
// server quotes now; unless m has moved since, it is forgotten, so that a
// rebooted server costs one exchange from event 0 and not one per appraisal.
func (m *LogMemory) Land(a *LogMemory, keep func(vid string) bool) {
	if a.Miss == missReplay {
		if m.Count == a.from {
			*m = LogMemory{}
		}
		return
	}
	if a.Count == a.from {
		return // a miss, an unhealthy verdict or no new events: nothing learned
	}
	for vid, seen := range a.images {
		if keep(vid) {
			m.meet(vid, seen)
		}
	}
	if a.Count > m.Count {
		m.Count, m.Bank = a.Count, a.Bank
	}
}

// Forget drops what is remembered of vid's image entry: the owner no longer
// holds the VM's records.
func (m *LogMemory) Forget(vid string) { delete(m.images, vid) }

// miss records why the carried events could not be judged on top of m.
// With nothing remembered the events are the whole log and what is wrong
// with them is the verdict.
func (m *LogMemory) miss(cause string) {
	if m.Count > 0 {
		m.Miss = cause
	}
}

// advance moves m over the carried events, which replayed to bank and passed
// every check.
func (m *LogMemory) advance(bank [tpm.NumPCRs][32]byte, events []tpm.Event) {
	m.Count += len(events)
	m.Bank = bank
	for _, e := range events {
		if vid, isImage := imageEntry(e); isImage {
			m.meet(vid, imageSeen{digest: e.Measurement})
		}
	}
}

// meet records an image entry of vid's; one that differs from what is on
// record makes it a conflict.
func (m *LogMemory) meet(vid string, seen imageSeen) {
	if have, ok := m.images[vid]; ok && (have.conflict || have.digest != seen.digest) {
		seen.conflict = true
	}
	if m.images == nil {
		m.images = make(map[string]imageSeen)
	}
	m.images[vid] = seen
}
