package partserver

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// session is a long-lived solver handle over a finished job's
// decomposition: the result's finegrain.Session (and so its compiled
// SpMV plan) is opened when the session opens and stays resident until
// the session is closed, evicted for capacity, or expires idle.
// Sessions are the server-side face of finegrain.Session — open once,
// solve many batches.
//
// A session does not own its result exclusively: the jobResult (and
// its finegrain.Session) is shared with the decomposition cache, the
// job record, and any other session opened on the same job. Plan
// release on session teardown therefore only happens when no other
// live session references the same result; a later solve through any
// surviving reference transparently reopens via sessionLocked.
type session struct {
	id    string
	jobID string
	key   string
	res   *jobResult

	created  time.Time
	lastUsed time.Time
	solves   int
}

// SessionStatus is the JSON view of a solver session.
type SessionStatus struct {
	ID    string `json:"id"`
	JobID string `json:"job_id"`

	CreatedAt  time.Time `json:"created_at"`
	LastUsedAt time.Time `json:"last_used_at"`
	// ExpiresAt is when the session dies if left idle: every access
	// (status, solve) pushes it out by the server's session TTL.
	ExpiresAt time.Time `json:"expires_at"`

	Solves     int `json:"solves"`
	K          int `json:"k"`
	MatrixRows int `json:"matrix_rows"`
}

// statusLocked snapshots the session (caller holds s.mu).
func (s *Server) sessionStatusLocked(sess *session) SessionStatus {
	return SessionStatus{
		ID:         sess.id,
		JobID:      sess.jobID,
		CreatedAt:  sess.created,
		LastUsedAt: sess.lastUsed,
		ExpiresAt:  sess.lastUsed.Add(s.cfg.SessionTTL),
		Solves:     sess.solves,
		K:          sess.res.dec.Assignment.K,
		MatrixRows: sess.res.dec.Assignment.A.Rows,
	}
}

// openSession registers a new session over a finished job's result,
// evicting the least-recently-used session when the registry is at
// MaxSessions. The caller has already opened the result's Session.
func (s *Server) openSession(j *job, res *jobResult) (SessionStatus, error) {
	now := time.Now()
	var evicted *session
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return SessionStatus{}, errDraining
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		for _, sess := range s.sessions {
			if evicted == nil || sess.lastUsed.Before(evicted.lastUsed) {
				evicted = sess
			}
		}
		delete(s.sessions, evicted.id)
		s.metrics.sessionsEvictedCap.Add(1)
	}
	s.sessionSeq++
	sess := &session{
		id:       fmt.Sprintf("s%06d", s.sessionSeq),
		jobID:    j.id,
		key:      j.key,
		res:      res,
		created:  now,
		lastUsed: now,
	}
	s.sessions[sess.id] = sess
	s.metrics.sessionsOpened.Add(1)
	s.metrics.sessionsActive.Store(int64(len(s.sessions)))
	st := s.sessionStatusLocked(sess)
	release := evicted != nil && !s.resSharedLocked(evicted.res)
	s.mu.Unlock()

	if evicted != nil {
		if release {
			evicted.res.releasePlan()
		}
		s.log.Info("session evicted", "session_id", evicted.id, "job_id", evicted.jobID, "reason", "capacity")
	}
	s.log.Info("session opened", "session_id", sess.id, "job_id", j.id)
	return st, nil
}

// resSharedLocked reports whether any registered session still
// references res (caller holds s.mu). Results shared with a surviving
// session keep their plan on another session's teardown.
func (s *Server) resSharedLocked(res *jobResult) bool {
	for _, sess := range s.sessions {
		if sess.res == res {
			return true
		}
	}
	return false
}

// sessionKnownLocked reports whether sid is an ID this server ever
// issued (caller holds s.mu) — the line between "expired, open a new
// one" (410) and "never existed" (404).
func (s *Server) sessionKnownLocked(sid string) bool {
	rest, ok := strings.CutPrefix(sid, "s")
	if !ok {
		return false
	}
	n, err := strconv.Atoi(rest)
	return err == nil && n >= 1 && n <= s.sessionSeq
}

// expireSessionLocked removes sess from the registry for idleness
// (caller holds s.mu) and reports whether its plan should be released.
func (s *Server) expireSessionLocked(sess *session) (release bool) {
	delete(s.sessions, sess.id)
	s.metrics.sessionsEvictedTTL.Add(1)
	s.metrics.sessionsActive.Store(int64(len(s.sessions)))
	return !s.resSharedLocked(sess.res)
}

// sweepSessions evicts every session idle past the TTL as of now and
// releases the plans no surviving session shares. It returns how many
// sessions it expired; the sweeper goroutine calls it on a timer and
// tests call it directly with a synthetic clock.
func (s *Server) sweepSessions(now time.Time) int {
	var expired, toRelease []*session
	s.mu.Lock()
	for _, sess := range s.sessions {
		if now.Sub(sess.lastUsed) > s.cfg.SessionTTL {
			expired = append(expired, sess)
		}
	}
	for _, sess := range expired {
		if s.expireSessionLocked(sess) {
			toRelease = append(toRelease, sess)
		}
	}
	s.mu.Unlock()
	// Two expired sessions can share one result; release it once.
	released := map[*jobResult]bool{}
	for _, sess := range toRelease {
		if !released[sess.res] {
			released[sess.res] = true
			sess.res.releasePlan()
		}
	}
	for _, sess := range expired {
		s.log.Info("session expired", "session_id", sess.id, "job_id", sess.jobID,
			"idle_ms", now.Sub(sess.lastUsed).Milliseconds())
	}
	return len(expired)
}

// sessionSweeper drives TTL eviction until server shutdown. It ticks
// at a fraction of the TTL so an idle session outlives its deadline by
// at most a quarter TTL (capped at 30 s for long TTLs).
func (s *Server) sessionSweeper() {
	tick := s.cfg.SessionTTL / 4
	if tick > 30*time.Second {
		tick = 30 * time.Second
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-t.C:
			s.sweepSessions(now)
		}
	}
}

// closeSessions tears down every session at shutdown, releasing the
// compiled plans.
func (s *Server) closeSessions() {
	s.mu.Lock()
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.sessions = make(map[string]*session)
	s.metrics.sessionsActive.Store(0)
	s.mu.Unlock()
	released := map[*jobResult]bool{}
	for _, sess := range all {
		if !released[sess.res] {
			released[sess.res] = true
			sess.res.releasePlan()
		}
	}
}
