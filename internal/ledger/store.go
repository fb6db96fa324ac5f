package ledger

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// store abstracts where segment files live. dirStore persists them on disk
// with real fsync (production/auditing); memStore keeps them in process
// (hermetic tests and the default in-process testbed). Both present the
// same byte-exact segment format, so every recovery and verification path
// is exercised identically against either backing.
type store interface {
	// Segments lists segment names in ascending order.
	Segments() ([]string, error)
	// Open opens an existing segment.
	Open(name string) (segFile, error)
	// Create creates a new empty segment.
	Create(name string) (segFile, error)
	// Remove deletes a segment (recovery drops those that no longer chain).
	Remove(name string) error
}

// segFile is one append-only segment. Writes go at the end; reads are
// random-access so queries never disturb the writer.
type segFile interface {
	io.ReaderAt
	io.Writer
	Size() (int64, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

const (
	segPrefix = "seg-"
	segSuffix = ".log"
)

// segName formats the segment holding entries from firstSeq.
func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

func isSegName(name string) bool {
	return strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix)
}

// --- disk-backed store ---

type dirStore struct {
	dir      string
	readOnly bool
}

func newDirStore(dir string, readOnly bool) (*dirStore, error) {
	if !readOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("ledger: creating %s: %w", dir, err)
		}
	}
	return &dirStore{dir: dir, readOnly: readOnly}, nil
}

func (d *dirStore) Segments() ([]string, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		if os.IsNotExist(err) && d.readOnly {
			return nil, fmt.Errorf("ledger: no ledger at %s", d.dir)
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() && isSegName(e.Name()) {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

func (d *dirStore) Open(name string) (segFile, error) {
	flag := os.O_RDWR
	if d.readOnly {
		flag = os.O_RDONLY
	}
	f, err := os.OpenFile(filepath.Join(d.dir, name), flag, 0o644)
	if err != nil {
		return nil, err
	}
	return &osSeg{f: f}, nil
}

func (d *dirStore) Create(name string) (segFile, error) {
	if d.readOnly {
		return nil, fmt.Errorf("ledger: store is read-only")
	}
	f, err := os.OpenFile(filepath.Join(d.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return &osSeg{f: f}, nil
}

func (d *dirStore) Remove(name string) error {
	if d.readOnly {
		return fmt.Errorf("ledger: store is read-only")
	}
	return os.Remove(filepath.Join(d.dir, name))
}

// osSeg adapts *os.File. The write offset is tracked explicitly so appends
// and ReadAt never race over the file position.
type osSeg struct {
	mu    sync.Mutex
	f     *os.File
	size  int64
	sized bool
}

func (s *osSeg) ReadAt(p []byte, off int64) (int, error) { return s.f.ReadAt(p, off) }

func (s *osSeg) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sized {
		st, err := s.f.Stat()
		if err != nil {
			return 0, err
		}
		s.size, s.sized = st.Size(), true
	}
	n, err := s.f.WriteAt(p, s.size)
	s.size += int64(n)
	return n, err
}

func (s *osSeg) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sized {
		return s.size, nil
	}
	st, err := s.f.Stat()
	if err != nil {
		return 0, err
	}
	s.size, s.sized = st.Size(), true
	return s.size, nil
}

func (s *osSeg) Truncate(size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Truncate(size); err != nil {
		return err
	}
	s.size, s.sized = size, true
	return nil
}

func (s *osSeg) Sync() error  { return s.f.Sync() }
func (s *osSeg) Close() error { return s.f.Close() }

// --- in-memory store ---

// memStore keeps segments as byte slices. It backs the default testbed
// (no LedgerDir configured) and lets crash tests corrupt bytes directly.
type memStore struct {
	mu    sync.Mutex
	files map[string]*memSeg
}

func newMemStore() *memStore {
	return &memStore{files: make(map[string]*memSeg)}
}

func (m *memStore) Segments() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name := range m.files {
		if isSegName(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

func (m *memStore) Open(name string) (segFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("ledger: no segment %q", name)
	}
	return s, nil
}

func (m *memStore) Create(name string) (segFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; ok {
		return nil, fmt.Errorf("ledger: segment %q exists", name)
	}
	s := &memSeg{}
	m.files[name] = s
	return s, nil
}

func (m *memStore) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

// memSeg keeps a segment in fixed-size chunks that are never copied, so a
// growing segment allocates only what it stores: one slice grown by append
// would copy the whole segment, up to MaxSegmentBytes, at each growth step.
type memSeg struct {
	mu     sync.Mutex
	chunks [][]byte // each memChunk bytes long but the last
	size   int
}

// memChunk is the unit a memSeg grows by.
const memChunk = 16 << 10

func (s *memSeg) ReadAt(p []byte, off int64) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for n < len(p) && off < int64(s.size) {
		k := copy(p[n:], s.chunks[off/memChunk][off%memChunk:])
		n += k
		off += int64(k)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (s *memSeg) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for rest := p; len(rest) > 0; {
		if s.size%memChunk == 0 {
			s.chunks = append(s.chunks, make([]byte, 0, memChunk))
		}
		last := &s.chunks[len(s.chunks)-1]
		k := min(len(rest), memChunk-len(*last))
		*last = append(*last, rest[:k]...)
		s.size += k
		rest = rest[k:]
	}
	return len(p), nil
}

func (s *memSeg) Size() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.size), nil
}

func (s *memSeg) Truncate(size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if size < 0 || size > int64(s.size) {
		return fmt.Errorf("ledger: bad truncate size %d", size)
	}
	s.size = int(size)
	n := (s.size + memChunk - 1) / memChunk
	clear(s.chunks[n:])
	s.chunks = s.chunks[:n]
	if n > 0 {
		s.chunks[n-1] = s.chunks[n-1][:s.size-(n-1)*memChunk]
	}
	return nil
}

func (s *memSeg) Sync() error  { return nil }
func (s *memSeg) Close() error { return nil }
