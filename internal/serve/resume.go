package serve

import (
	"fmt"

	"graphene/internal/trace"
)

// Session resume (DESIGN.md §12). A session with ReportEvery > 0 on a
// daemon running a checkpoint journal is resumable: as the replay router
// completes segments, the raw wire bytes are journaled in chunks of
// ReportEvery segments, each chunk recorded immediately before the
// partial Report covering it goes out — so any partial the client has
// seen names a prefix the journal durably holds. The trace codec's delta
// state persists across segment boundaries (DESIGN.md §10), so a resumed
// replay cannot simply skip ahead in its own decode: instead the server
// re-replays the journaled raw prefix (canonical header + verbatim
// segment bytes) spliced in front of the live stream, which makes the
// total decoded byte stream — and therefore the Result — byte-identical
// to an uninterrupted replay. The client, told how many segments the
// journal restored, skips exactly that prefix of its source
// (trace.SkipBinaryPrefix) and streams the remainder.

// resumeMeta is the per-session journal record written once, when the
// trace header first decodes: everything needed to rebuild the session
// (its resolved Hello) and the stream prefix (the header fields feeding
// trace.AppendBinaryHeader). The journaled Hello is authoritative on
// resume; the reconnecting client's parameters are not trusted to match.
type resumeMeta struct {
	Hello Hello  `json:"hello"`
	Name  string `json:"name"`
	Banks int    `json:"banks"`
	Total int64  `json:"total"`

	// Version is the stream's binary codec version (1 = RHTB1, 2 = RHTB2
	// with dwell columns). Absent in journals written before dwell
	// support — the JSON zero maps to version 1, the only format those
	// journals could hold — so old journals restore unchanged.
	Version int `json:"version,omitempty"`
}

// resumeChunk is one journaled run of ReportEvery segments: the verbatim
// wire bytes (length-prefixed segment payloads) ready to splice back into
// a stream.
type resumeChunk struct {
	Segments int    `json:"segments"`
	Data     []byte `json:"data"`
}

func resumeMetaKey(tenant string, session int64) string {
	return fmt.Sprintf("resume/%s/%d/meta", tenant, session)
}

func resumeChunkKey(tenant string, session int64, i int) string {
	return fmt.Sprintf("resume/%s/%d/chunk/%d", tenant, session, i)
}

// restoreState is a restored session prefix: the rebuilt wire bytes
// (header plus journaled segments) and how many segments they carry.
type restoreState struct {
	data     []byte
	segments int
}

// prepareResume resolves a resume hello against the journal: the
// journaled Hello becomes the session's parameters and the journaled
// chunks become the replay prefix. The handle must name a session this
// daemon's journal knows for this tenant — resume across tenants finds
// nothing, by key construction.
func (s *Server) prepareResume(h Hello) (Hello, *restoreState, error) {
	if s.cfg.Checkpoint == nil {
		return h, nil, fmt.Errorf("resume: daemon runs without a checkpoint journal")
	}
	var meta resumeMeta
	if !s.cfg.Checkpoint.Lookup(resumeMetaKey(h.Tenant, h.Resume.Session), &meta) {
		return h, nil, fmt.Errorf("resume: unknown session %d for tenant %q", h.Resume.Session, h.Tenant)
	}
	jh := meta.Hello.withDefaults()
	if err := jh.validate(); err != nil {
		return h, nil, fmt.Errorf("resume: journaled hello: %w", err)
	}
	jh.Resume = h.Resume
	version := meta.Version
	if version == 0 {
		version = 1
	}
	st := &restoreState{data: trace.AppendBinaryHeader(nil, meta.Name, meta.Banks, meta.Total, version)}
	for i := 0; ; i++ {
		var c resumeChunk
		if !s.cfg.Checkpoint.Lookup(resumeChunkKey(h.Tenant, h.Resume.Session, i), &c) {
			break
		}
		st.data = append(st.data, c.Data...)
		st.segments += c.Segments
	}
	return jh, st, nil
}
