// Package radio simulates the shared wireless medium: a unit-disk
// propagation model with per-transmission accounting, optional per-hop
// latency and loss, and a uniform-grid spatial index for neighbor lookup.
//
// This replaces the paper's GloMoSim/802.11 substrate. The paper reports
// 100% delivery ("high density of sensor nodes and low traffic load"), so
// the default medium is lossless; Bernoulli loss can be injected for
// robustness experiments. Every call to Send counts exactly one wireless
// transmission in the run's metrics registry — the unit of the paper's
// messaging-overhead metric (Figure 4).
package radio

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"roborepair/internal/geom"
	"roborepair/internal/metrics"
	"roborepair/internal/sim"
)

// NodeID identifies a station (sensor, robot, or manager) on the medium.
type NodeID int

// IDBroadcast addresses a frame to every station in transmission range.
const IDBroadcast NodeID = -1

// String formats the ID, naming the broadcast address.
func (id NodeID) String() string {
	if id == IDBroadcast {
		return "bcast"
	}
	return fmt.Sprintf("n%d", int(id))
}

// Frame is one link-layer transmission. Payload is interpreted by the
// network layer; Category attributes the transmission in the metrics
// registry.
type Frame struct {
	Src      NodeID
	Dst      NodeID // IDBroadcast for one-hop broadcast
	Category string
	Payload  any
}

// Station is anything attached to the medium.
type Station interface {
	// RadioID returns the station's medium address.
	RadioID() NodeID
	// RadioPos returns the station's current location.
	RadioPos() geom.Point
	// RadioRange returns the station's transmission range in meters.
	RadioRange() float64
	// RadioActive reports whether the station can send and receive
	// (failed sensors are inactive but remain attached).
	RadioActive() bool
	// HandleFrame delivers a received frame.
	HandleFrame(f Frame)
}

// MobileStation marks a station whose position changes continuously
// between Moved notifications — robots interpolate along their travel
// legs, so only a live RadioPos call yields the exact position. The
// medium re-polls RadioPos on every query for a station reporting
// RadioMobile; for everything else it uses the position cached at Attach
// and refreshed at Moved, which keeps broadcasts from paying an interface
// call per candidate.
type MobileStation interface {
	Station
	// RadioMobile reports whether the station moves between Moved calls.
	RadioMobile() bool
}

// Auditor observes the medium's transmissions and deliveries for
// conservation checking (the invariant layer). FrameSent fires once per
// accepted Send; FrameDelivered fires immediately before each
// Station.HandleFrame with the sender's position and range at
// transmission time, on both the direct and the contended delivery path.
// A nil auditor costs one pointer test per event.
type Auditor interface {
	// FrameSent records one accepted transmission.
	FrameSent(f Frame)
	// FrameDelivered records one reception about to be handed to dst.
	FrameDelivered(f Frame, from geom.Point, rng float64, dst Station)
	// FrameDuplicated records one extra reception injected by the hostile
	// channel (a duplicated or replayed frame), so the tx-conservation law
	// can credit the surplus. It fires before the matching FrameDelivered.
	FrameDuplicated(f Frame)
}

// Channel serializes frames at the medium boundary (hostile-channel
// extension). When installed, every accepted Send is encoded once and
// decoded once per distinct received buffer: clean receptions share one
// decoded frame, while every buffer the Corrupter substitutes (a mutated
// copy or a replay of another transmission) meets the same defensive
// decoding a real radio would need. AppendEncode appends the encoding of f
// to dst and returns the extended slice; the medium owns that buffer and
// reuses it for a later transmission once every reception of this one has
// been decoded.
//
// Decode is given the transmission's frame as sent (the zero Frame means
// none). Its result must depend only on b, and it must not retain b, but
// where b decodes to values equal to sent's — floats bit for bit — it may
// return sent's own payload values instead of fresh copies. Receivers
// then share the sender's values, exactly as on the codec-free medium, so
// they must not mutate a payload's slices (Packet.Path, FloodMsg.Relays).
type Channel interface {
	AppendEncode(dst []byte, f Frame) ([]byte, error)
	Decode(b []byte, sent Frame) (Frame, error)
}

// Corrupter mutates in-flight frame bytes. Corrupt is called once per
// reception with the sender's encoding; it must never modify b in place
// (the buffer is shared across all receivers of one transmission) and
// returns the bytes to decode, whether they were mutated, and whether the
// frame additionally arrives a second time (duplication). b is valid only
// for the call: the medium reuses it once the transmission is delivered,
// so a corrupter that keeps bytes for later (a replay capture) must copy
// them. The medium decodes out before the next Corrupt call and keeps
// nothing of it, so out may be storage the corrupter reuses.
type Corrupter interface {
	Corrupt(b []byte) (out []byte, corrupted, dup bool)
}

// LossModel decides whether a particular reception is dropped.
type LossModel interface {
	// Drop reports whether the frame from src is lost at dst.
	Drop(src, dst NodeID) bool
}

// FrameLossModel is an optional refinement of LossModel: a loss model that
// also implements it is consulted with the full frame, so drops can depend
// on traffic category or payload (e.g. a test that loses exactly the first
// failure report, or a scripted loss burst).
type FrameLossModel interface {
	LossModel
	// DropFrame reports whether frame f is lost at dst.
	DropFrame(f Frame, dst NodeID) bool
}

// OutageModel silences regions of the field: a station whose position is
// silenced can neither be heard nor hear anything (a radio blackout, e.g.
// jamming or EMP in a disaster scenario). Implementations are typically
// driven by the simulation clock.
type OutageModel interface {
	// Silenced reports whether a station at pos is inside a blackout.
	Silenced(pos geom.Point) bool
}

// BernoulliLoss drops each reception independently with probability P,
// drawing from Rand. Rand must be non-nil whenever P > 0; NewMedium
// rejects a misconfigured model instead of panicking mid-run.
type BernoulliLoss struct {
	P    float64
	Rand interface{ Float64() float64 }
}

// Drop implements LossModel. A zero-probability model never drops, even
// without a random source.
func (l *BernoulliLoss) Drop(NodeID, NodeID) bool {
	if l.P <= 0 {
		return false
	}
	return l.Rand.Float64() < l.P
}

// Validate reports whether the model is usable.
func (l *BernoulliLoss) Validate() error {
	if l == nil {
		return nil
	}
	if l.P < 0 || l.P > 1 {
		return fmt.Errorf("radio: loss probability %v outside [0,1]", l.P)
	}
	if l.P > 0 && l.Rand == nil {
		return fmt.Errorf("radio: BernoulliLoss with P=%v needs a random source (Rand is nil)", l.P)
	}
	return nil
}

var _ LossModel = (*BernoulliLoss)(nil)

// Config parameterizes a Medium.
type Config struct {
	// CellSize is the spatial-index grid pitch in meters; it should be
	// close to the most common transmission range. Zero selects 63 m
	// (the paper's sensor range).
	CellSize float64
	// Latency is the virtual time between Send and delivery. Zero means
	// synchronous delivery within the same event. Ignored when the
	// contention model is enabled (airtime then governs timing).
	Latency sim.Duration
	// Loss optionally drops receptions. Nil means lossless.
	Loss LossModel
	// Outage optionally silences regions of the field. Nil means no
	// blackouts.
	Outage OutageModel
	// Contention optionally enables the MAC collision model.
	Contention ContentionConfig
	// Channel, when non-nil, serializes every frame on Send and decodes
	// it once per distinct received buffer; clean receptions share one
	// decoded frame (hostile-channel extension). Nil keeps the frames as
	// Go values, byte-for-byte reproducing the codec-free medium.
	Channel Channel
	// Corrupter, when non-nil, mutates in-flight bytes between Encode and
	// Decode. Requires Channel; NewMedium rejects the combination without
	// one.
	Corrupter Corrupter
}

// Medium is the shared wireless channel. It is single-threaded, driven by
// the simulation scheduler.
//
// Per-station hot state lives in ID-indexed slices (struct-of-arrays):
// node IDs are small dense integers assigned by the world builder, so a
// slice index replaces a map lookup on every candidate the broadcast path
// touches. The cached position and activity are authoritative for
// everything except mobile stations' positions (see MobileStation);
// stations that change activity while attached must call SetActive.
type Medium struct {
	sched    *sim.Scheduler
	reg      *metrics.Registry
	cfg      Config
	stations []Station // indexed by NodeID; nil when not attached
	pos      []geom.Point
	active   []bool
	mobile   []bool
	cell     []cellKey // authoritative grid membership
	count    int
	grid     map[cellKey][]NodeID
	air      air
	frameSeq uint64
	// mobiles lists the attached mobile stations in ID order; cached
	// broadcasts merge them into a static sender's neighbor set.
	mobiles []NodeID
	// statics, arena, arenaDead and cacheRange hold the per-sender static
	// neighbor sets (see static.go); builtSets counts the sets built at
	// least once and builtIDs the IDs of their first builds.
	statics    []staticSet
	arena      []int32
	arenaDead  int
	cacheRange float64
	builtSets  int
	builtIDs   int
	// bufs are the broadcast delivery buffers, one per delivery depth:
	// a Send re-entered from HandleFrame (a flood relay) fills the next
	// one while its caller still iterates its own. depth is the number of
	// buffers in use.
	bufs  [][]neighbor
	depth int
	// rangeScratch is InRangeScratch's buffer.
	rangeScratch []RangeEntry
	// txFree recycles transmission records, their bound step funcs and
	// their encode buffers (see takeTransmission).
	txFree []*transmission
	// collisionCt is the pre-resolved handle for the contention model's
	// per-reception collision accounting.
	collisionCt *metrics.Counter
	// frameLoss caches the FrameLossModel view of cfg.Loss (nil when the
	// model only implements per-pair Drop), keeping the type assertion off
	// the delivery path.
	frameLoss FrameLossModel
	// audit, when non-nil, observes every transmission and delivery.
	audit Auditor
	// channelDrop, when non-nil, observes every frame the hostile channel
	// drops as malformed (telemetry feed; see SetChannelDropHook).
	channelDrop func(f Frame)
}

// sendSnapshot freezes the sender's position and range at Send time.
type sendSnapshot struct {
	pos geom.Point
	rng float64
}

type cellKey struct{ cx, cy int }

// NewMedium returns an empty medium using the given scheduler and metrics
// registry. It rejects a misconfigured loss model (any model exposing
// Validate, e.g. a BernoulliLoss whose Rand is nil) so the error surfaces
// at construction instead of as a panic on the first dropped reception.
func NewMedium(sched *sim.Scheduler, reg *metrics.Registry, cfg Config) (*Medium, error) {
	if cfg.CellSize <= 0 {
		cfg.CellSize = 63
	}
	if v, ok := cfg.Loss.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("radio: invalid loss model: %w", err)
		}
	}
	if cfg.Corrupter != nil && cfg.Channel == nil {
		return nil, fmt.Errorf("radio: a Corrupter needs a Channel to produce bytes to corrupt")
	}
	fl, _ := cfg.Loss.(FrameLossModel)
	return &Medium{
		sched:       sched,
		reg:         reg,
		cfg:         cfg,
		grid:        make(map[cellKey][]NodeID),
		collisionCt: reg.Counter(CatCollision),
		frameLoss:   fl,
	}, nil
}

// SetLoss replaces the medium's loss model (nil restores lossless
// delivery). Tests use it to wrap the configured model with targeted
// drops — e.g. losing exactly the first failure report of a run.
func (m *Medium) SetLoss(l LossModel) {
	m.cfg.Loss = l
	m.frameLoss, _ = l.(FrameLossModel)
}

// Loss returns the medium's current loss model (nil when lossless), so a
// wrapper installed via SetLoss can delegate to it.
func (m *Medium) Loss() LossModel { return m.cfg.Loss }

// SetAuditor installs (or, with nil, removes) the medium's delivery
// auditor.
func (m *Medium) SetAuditor(a Auditor) { m.audit = a }

// SetChannelDropHook installs (or, with nil, removes) an observer called
// once per frame the hostile channel drops as malformed. The frame passed
// is the sender's view (the received bytes failed to decode).
func (m *Medium) SetChannelDropHook(hook func(f Frame)) { m.channelDrop = hook }

// ensureID grows the per-station state arrays to cover id.
func (m *Medium) ensureID(id NodeID) {
	need := int(id) + 1
	if need <= len(m.stations) {
		return
	}
	for len(m.stations) < need {
		m.stations = append(m.stations, nil)
		m.pos = append(m.pos, geom.Point{})
		m.active = append(m.active, false)
		m.mobile = append(m.mobile, false)
		m.cell = append(m.cell, cellKey{})
	}
}

// station returns the attached station with the given ID, or nil.
func (m *Medium) station(id NodeID) Station {
	if id < 0 || int(id) >= len(m.stations) {
		return nil
	}
	return m.stations[id]
}

// posOf returns a station's exact current position: the live RadioPos for
// mobile stations, the cached position for everything else.
func (m *Medium) posOf(id NodeID) geom.Point {
	if m.mobile[id] {
		return m.stations[id].RadioPos()
	}
	return m.pos[id]
}

// Attach registers a station at its current position. Attaching an ID that
// is already present replaces the previous station. IDs must be
// non-negative (the world builder assigns small dense integers).
func (m *Medium) Attach(s Station) {
	id := s.RadioID()
	if id < 0 {
		return
	}
	m.ensureID(id)
	if m.stations[id] != nil {
		m.forget(id)
		m.count--
	}
	m.stations[id] = s
	ms, ok := s.(MobileStation)
	m.mobile[id] = ok && ms.RadioMobile()
	p := s.RadioPos()
	m.pos[id] = p
	m.active[id] = s.RadioActive()
	k := m.keyOf(p)
	m.cell[id] = k
	m.grid[k] = append(m.grid[k], id)
	m.count++
	if m.mobile[id] {
		i, _ := slices.BinarySearch(m.mobiles, id)
		m.mobiles = slices.Insert(m.mobiles, i, id)
	} else {
		m.invalidateAround(p)
	}
}

// Detach removes a station from the medium entirely.
func (m *Medium) Detach(id NodeID) {
	if m.station(id) == nil {
		return
	}
	m.forget(id)
	m.stations[id] = nil
	m.active[id] = false
	m.mobile[id] = false
	m.count--
}

// forget drops an attached station from the grid, the mobile list and
// every static neighbor set that may hold it.
func (m *Medium) forget(id NodeID) {
	m.removeFromGridAt(id, m.cell[id])
	if m.mobile[id] {
		i, _ := slices.BinarySearch(m.mobiles, id)
		m.mobiles = slices.Delete(m.mobiles, i, i+1)
	} else {
		m.invalidateAround(m.pos[id])
	}
}

// SetActive updates the medium's activity cache for an attached station.
// Stations whose RadioActive answer changes while attached (sensor death,
// robot breakdown) must call this; the delivery paths consult only the
// cache.
func (m *Medium) SetActive(id NodeID, active bool) {
	if m.station(id) != nil {
		m.active[id] = active
	}
}

// Moved must be called after a station's position changes so the spatial
// index and the static neighbor sets stay consistent. The old position is no longer needed — the
// medium tracks grid membership itself — but the parameter is kept so
// call sites read naturally.
func (m *Medium) Moved(id NodeID, oldPos geom.Point) {
	_ = oldPos
	s := m.station(id)
	if s == nil {
		return
	}
	p := s.RadioPos()
	if !m.mobile[id] {
		m.invalidateAround(m.pos[id])
		m.invalidateAround(p)
	}
	m.pos[id] = p
	newKey := m.keyOf(p)
	if newKey == m.cell[id] {
		return
	}
	m.removeFromGridAt(id, m.cell[id])
	m.cell[id] = newKey
	m.grid[newKey] = append(m.grid[newKey], id)
}

// Station returns the attached station with the given ID, or nil.
func (m *Medium) Station(id NodeID) Station { return m.station(id) }

// Len reports the number of attached stations.
func (m *Medium) Len() int { return m.count }

func (m *Medium) keyOf(p geom.Point) cellKey {
	return cellKey{
		cx: int(math.Floor(p.X / m.cfg.CellSize)),
		cy: int(math.Floor(p.Y / m.cfg.CellSize)),
	}
}

func (m *Medium) removeFromGridAt(id NodeID, k cellKey) {
	ids := m.grid[k]
	for i, v := range ids {
		if v == id {
			ids[i] = ids[len(ids)-1]
			m.grid[k] = ids[:len(ids)-1]
			return
		}
	}
}

// neighbor pairs a candidate's ID with its station for delivery, so the
// per-receiver loops never go back through a lookup.
type neighbor struct {
	id NodeID
	st Station
}

// InRange returns the active stations strictly within radius of p,
// excluding the station with ID exclude. Results are in deterministic
// (ID-sorted) order. The returned slice is freshly allocated; internal
// delivery paths use the per-depth delivery buffers instead (see
// neighbors).
func (m *Medium) InRange(p geom.Point, radius float64, exclude NodeID) []Station {
	if radius <= 0 {
		return nil
	}
	ns := m.inRangeAppend(nil, p, radius, exclude)
	if ns == nil {
		return nil
	}
	out := make([]Station, len(ns))
	for i, n := range ns {
		out[i] = n.st
	}
	return out
}

// RangeEntry is one result of an in-range query: the station's ID and its
// current position, with no station reference — callers that only route by
// geometry avoid the interface loads entirely.
type RangeEntry struct {
	ID  NodeID
	Loc geom.Point
}

// AppendInRange appends the active stations strictly within radius of p
// (excluding exclude) to dst in ID-sorted order and returns the extended
// slice. Reusing dst across calls keeps the per-hop routing query
// allocation-free in the steady state.
func (m *Medium) AppendInRange(dst []RangeEntry, p geom.Point, radius float64, exclude NodeID) []RangeEntry {
	if radius <= 0 {
		return dst
	}
	base := len(dst)
	r2 := radius * radius
	lo := m.keyOf(geom.Pt(p.X-radius, p.Y-radius))
	hi := m.keyOf(geom.Pt(p.X+radius, p.Y+radius))
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			for _, id := range m.grid[cellKey{cx, cy}] {
				if id == exclude || !m.active[id] {
					continue
				}
				q := m.pos[id]
				if m.mobile[id] {
					q = m.stations[id].RadioPos()
				}
				if p.Dist2(q) <= r2 {
					dst = append(dst, RangeEntry{ID: id, Loc: q})
				}
			}
		}
	}
	sortRangeEntries(dst[base:])
	return dst
}

// InRangeScratch returns the active stations strictly within radius of p
// (excluding exclude) in ID-sorted order, in a buffer the medium owns:
// the result is valid only until the next InRangeScratch call on this
// medium, whoever makes it. It is the routing scratch that every
// ground-truth next-hop query of a world shares (netstack.MediumSource).
func (m *Medium) InRangeScratch(p geom.Point, radius float64, exclude NodeID) []RangeEntry {
	m.rangeScratch = m.AppendInRange(m.rangeScratch[:0], p, radius, exclude)
	return m.rangeScratch
}

// inRangeAppend appends the active stations strictly within radius of p
// (excluding exclude) to dst in ID-sorted order and returns the extended
// slice.
func (m *Medium) inRangeAppend(dst []neighbor, p geom.Point, radius float64, exclude NodeID) []neighbor {
	base := len(dst)
	dst = m.gridAppend(dst, p, radius, exclude)
	sortNeighbors(dst[base:])
	return dst
}

// gridAppend appends the active stations strictly within radius of p
// (excluding exclude) to dst in grid-walk order and returns the extended
// slice. Candidates resolve through the SoA caches: one bounds-checked
// slice load each for activity and position, no interface calls except for
// mobile stations.
func (m *Medium) gridAppend(dst []neighbor, p geom.Point, radius float64, exclude NodeID) []neighbor {
	if radius <= 0 {
		return dst
	}
	r2 := radius * radius
	lo := m.keyOf(geom.Pt(p.X-radius, p.Y-radius))
	hi := m.keyOf(geom.Pt(p.X+radius, p.Y+radius))
	for cx := lo.cx; cx <= hi.cx; cx++ {
		for cy := lo.cy; cy <= hi.cy; cy++ {
			for _, id := range m.grid[cellKey{cx, cy}] {
				if id == exclude || !m.active[id] {
					continue
				}
				q := m.pos[id]
				if m.mobile[id] {
					q = m.stations[id].RadioPos()
				}
				if p.Dist2(q) <= r2 {
					dst = append(dst, neighbor{id: id, st: m.stations[id]})
				}
			}
		}
	}
	return dst
}

// neighbors fills the buffer of the current delivery depth with the
// active stations in range, in ID order, and returns it; the caller hands
// it back with release once delivery is done. A static sender at its
// cached position is served from its static neighbor set, everything
// else from the grid.
func (m *Medium) neighbors(p geom.Point, radius float64, exclude NodeID) []neighbor {
	buf := m.acquire()
	if m.cachedStatic(exclude, p, radius) {
		return m.staticAppend(buf, exclude, p, radius)
	}
	return m.inRangeAppend(buf, p, radius, exclude)
}

// acquire returns the empty buffer of the next delivery depth; the caller
// hands it back with release.
func (m *Medium) acquire() []neighbor {
	if m.depth == len(m.bufs) {
		m.bufs = append(m.bufs, nil)
	}
	buf := m.bufs[m.depth][:0]
	m.depth++
	return buf
}

// cachedStatic reports whether a send from src at p with the given radius
// is served from src's static neighbor set: src is an attached static
// station still at p.
func (m *Medium) cachedStatic(src NodeID, p geom.Point, radius float64) bool {
	return m.station(src) != nil && !m.mobile[src] && m.pos[src] == p && radius > 0
}

// release returns the deepest delivery buffer, dropping its station
// references so detached stations are not pinned.
func (m *Medium) release(buf []neighbor) {
	clear(buf)
	m.depth--
	m.bufs[m.depth] = buf[:0]
}

// sortCutover is the neighbor count above which sortNeighbors switches
// from insertion sort to slices.SortFunc: past a few dozen entries the
// quadratic cost of insertion sort overtakes pdqsort's overhead.
const sortCutover = 24

func sortNeighbors(ns []neighbor) {
	if len(ns) > sortCutover {
		slices.SortFunc(ns, func(a, b neighbor) int { return cmp.Compare(a.id, b.id) })
		return
	}
	// Insertion sort: typical neighbor lists are short, and this avoids
	// any sort-machinery overhead on the hottest path.
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].id < ns[j-1].id; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

func sortRangeEntries(ns []RangeEntry) {
	if len(ns) > sortCutover {
		slices.SortFunc(ns, func(a, b RangeEntry) int { return cmp.Compare(a.ID, b.ID) })
		return
	}
	for i := 1; i < len(ns); i++ {
		for j := i; j > 0 && ns[j].ID < ns[j-1].ID; j-- {
			ns[j], ns[j-1] = ns[j-1], ns[j]
		}
	}
}

// Send transmits one frame from the station f.Src. The transmission is
// counted in f.Category regardless of how many stations receive it (a
// single wireless transmission reaches all neighbors). Inactive or
// detached senders transmit nothing.
func (m *Medium) Send(f Frame) {
	src := m.station(f.Src)
	if src == nil || !m.active[f.Src] {
		return
	}
	m.reg.CountTx(f.Category, 1)
	if m.audit != nil {
		m.audit.FrameSent(f)
	}
	pos, rng := m.posOf(f.Src), src.RadioRange()
	if m.cfg.Channel != nil || m.cfg.Contention.Enabled() {
		m.sendRecorded(f, sendSnapshot{pos: pos, rng: rng})
		return
	}
	if m.cfg.Latency <= 0 {
		m.deliver(f, nil, pos, rng)
		return
	}
	m.sched.After(m.cfg.Latency, func() { m.deliver(f, nil, pos, rng) })
}

// sendRecorded is Send with a Channel or under contention: the
// transmission runs on a record from the free list, which goes back once
// the frame is delivered. With a channel installed the frame is
// serialized exactly once per transmission, into the record's reused
// buffer.
func (m *Medium) sendRecorded(f Frame, pos sendSnapshot) {
	t := m.takeTransmission()
	if m.cfg.Channel != nil {
		b, err := m.cfg.Channel.AppendEncode(t.enc.b[:0], f)
		if err != nil {
			// Only payloads outside the wire message set fail to encode —
			// a programming error, not a channel condition.
			panic(fmt.Sprintf("radio: unencodable %s frame: %v", f.Category, err))
		}
		t.enc.b = b
	}
	if m.cfg.Contention.Enabled() {
		m.sendContended(t, f, pos)
		return
	}
	if m.cfg.Latency <= 0 {
		m.deliver(f, &t.enc, pos.pos, pos.rng)
		m.putTransmission(t)
		return
	}
	m.sched.After(m.cfg.Latency, func() {
		m.deliver(f, &t.enc, pos.pos, pos.rng)
		m.putTransmission(t)
	})
}

// encoded is one transmission under a Channel: the sender's encoding and
// its decode, made by the first reception that hears the buffer unchanged
// and shared by every later one.
type encoded struct {
	b       []byte
	decoded bool
	f       Frame
	err     error
}

// decode returns the decoding of b, reusing the transmission's shared
// decode when b is the sender's own buffer (same backing array and
// length). Any other buffer — a mutated copy, a truncation, a replay of
// another transmission — is decoded on its own. Either way the decoder
// gets sent, the frame the transmission carried, as its hint.
func (tx *encoded) decode(c Channel, b []byte, sent Frame) (Frame, error) {
	if len(b) != len(tx.b) || len(b) == 0 || &b[0] != &tx.b[0] {
		return c.Decode(b, sent)
	}
	if !tx.decoded {
		tx.f, tx.err = c.Decode(tx.b, sent)
		tx.decoded = true
	}
	return tx.f, tx.err
}

// CatBlackout is the metrics category counting transmissions swallowed
// whole by a regional radio blackout (the sender was inside a silenced
// region). Receivers silently missing a frame are not counted, matching
// how range and loss drops are accounted.
const CatBlackout = "blackout_drop"

// lost reports whether frame f fails to decode at dst, consulting the
// frame-aware model when the configured loss model provides one.
func (m *Medium) lost(f Frame, dst NodeID) bool {
	if m.cfg.Loss == nil {
		return false
	}
	if m.frameLoss != nil {
		return m.frameLoss.DropFrame(f, dst)
	}
	return m.cfg.Loss.Drop(f.Src, dst)
}

// silenced reports whether a station at p is inside a blackout region.
func (m *Medium) silenced(p geom.Point) bool {
	return m.cfg.Outage != nil && m.cfg.Outage.Silenced(p)
}

func (m *Medium) deliver(f Frame, tx *encoded, from geom.Point, rng float64) {
	if m.silenced(from) {
		m.reg.CountTx(CatBlackout, 1)
		return
	}
	if f.Dst != IDBroadcast {
		dst := m.station(f.Dst)
		if dst == nil || !m.active[f.Dst] {
			return
		}
		dp := m.posOf(f.Dst)
		if from.Dist2(dp) > rng*rng {
			return
		}
		if m.silenced(dp) {
			return
		}
		if m.lost(f, f.Dst) {
			return
		}
		m.handoff(f, tx, from, rng, dst)
		return
	}
	buf := m.neighbors(from, rng, f.Src)
	checkOutage := m.cfg.Outage != nil
	for _, n := range buf {
		if checkOutage && m.cfg.Outage.Silenced(m.posOf(n.id)) {
			continue
		}
		if m.lost(f, n.id) {
			continue
		}
		m.handoff(f, tx, from, rng, n.st)
	}
	m.release(buf)
}

// CatCorruptFrame counts receptions whose bytes the hostile channel
// mutated (including injected duplicates and replays); CatMalformed
// counts receptions the defensive decoder then dropped — checksum
// failures, truncations, and misaddressed replays the NIC filter rejects.
const (
	CatCorruptFrame = "corrupt_frame"
	CatMalformed    = "drop_malformed"
)

// handoff passes one reception to a station. With no channel installed it
// reduces to the audit hook plus HandleFrame; otherwise the reception is
// independently corrupted and defensively decoded first (see
// encoded.decode for which receptions share a decode).
func (m *Medium) handoff(f Frame, tx *encoded, from geom.Point, rng float64, dst Station) {
	if tx == nil {
		if m.audit != nil {
			m.audit.FrameDelivered(f, from, rng, dst)
		}
		dst.HandleFrame(f)
		return
	}
	b, corrupted, dup := tx.b, false, false
	if m.cfg.Corrupter != nil {
		b, corrupted, dup = m.cfg.Corrupter.Corrupt(tx.b)
	}
	if corrupted || dup {
		m.reg.CountTx(CatCorruptFrame, 1)
	}
	g, err := tx.decode(m.cfg.Channel, b, f)
	if err != nil {
		// Checksum or structure failure: drop, count, never act on it.
		m.reg.CountTx(CatMalformed, 1)
		if m.channelDrop != nil {
			m.channelDrop(f)
		}
		return
	}
	// NIC address filter: a replayed frame captured elsewhere may carry a
	// unicast address for some other station; the hardware filter discards
	// it before the stack ever sees it.
	if g.Dst != IDBroadcast && g.Dst != dst.RadioID() {
		m.reg.CountTx(CatMalformed, 1)
		if m.channelDrop != nil {
			m.channelDrop(g)
		}
		return
	}
	if corrupted && m.audit != nil {
		// CRC-32/IEEE detects all 1–3-bit mutations at these frame sizes,
		// so a mutated frame that still decodes can only be a stale replay
		// of a previously valid frame — an extra delivery the
		// tx-conservation law must credit.
		m.audit.FrameDuplicated(g)
	}
	if m.audit != nil {
		m.audit.FrameDelivered(g, from, rng, dst)
	}
	dst.HandleFrame(g)
	if dup {
		if m.audit != nil {
			m.audit.FrameDuplicated(g)
			m.audit.FrameDelivered(g, from, rng, dst)
		}
		dst.HandleFrame(g)
	}
}

// Scheduler exposes the simulation scheduler driving this medium.
func (m *Medium) Scheduler() *sim.Scheduler { return m.sched }

// Metrics exposes the metrics registry transmissions are counted in.
func (m *Medium) Metrics() *metrics.Registry { return m.reg }
