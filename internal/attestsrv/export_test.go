package attestsrv

import (
	"fmt"
	"slices"
	"strings"

	"cloudmonatt/internal/trust/driver"
)

// ForgetLogs empties what the server remembers of every cloud server's
// event log. That memory is never persisted, so this is what a restart of
// the Attestation Server does to it.
func (s *Server) ForgetLogs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.servers {
		*r.log = driver.LogMemory{}
	}
}

// LogCount reports how many events of a cloud server's log are remembered.
func (s *Server) LogCount(server string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.servers[server].log.Count
}

// StaleLog makes what is remembered of a cloud server's log wrong, the way
// a reboot of the server into a new log does: the remembered bank no longer
// leads to anything the server will quote.
func (s *Server) StaleLog(server string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.servers[server].log.Bank[0][0] ^= 1
}

// VMState renders what the server holds for vid: its appraisal record and
// each periodic stream's property, host, frequency and undelivered results.
func (s *Server) VMState(vid string) string {
	s.mu.Lock()
	rec := fmt.Sprintf("%+v", s.vms[vid])
	s.mu.Unlock()
	var tasks []string
	s.periodic.mu.Lock()
	for _, t := range s.periodic.tasks {
		if t.vid == vid {
			tasks = append(tasks, fmt.Sprintf("%s@%s every %v random=%v stopped=%v results=%d",
				t.prop, t.serverID, t.freq, t.random, t.stopped, t.results.Len()))
		}
	}
	s.periodic.mu.Unlock()
	slices.Sort(tasks)
	return rec + " " + strings.Join(tasks, "; ")
}
