package cqrs

import (
	"cmp"
	"math"
	"net/netip"
	"slices"
	"time"

	"censysmap/internal/entity"
)

// calendar is a shard's refresh calendar: every materialized service record
// filed under the hour of its LastSeen, so the records a refresh cutoff makes
// due are read from the hours up to the cutoff instead of a walk over every
// record. A record is filed again whenever its LastSeen moves; the entry it
// leaves behind goes stale and is dropped when its hour is read, as is the
// entry of a record that was replaced or removed. The calendar is derived
// state, rebuilt with the records (RebuildProcessor). Guarded by the shard's
// lock.
type calendar struct {
	hours map[int64][]calEntry
	// first is the earliest hour that may hold entries (MaxInt64 when none
	// does).
	first int64
	// spare keeps read hours' emptied lists for reuse.
	spare [][]calEntry
}

// calEntry files one record at the LastSeen it had when filed.
type calEntry struct {
	id  string // h's entity ID
	h   *entity.Host
	svc *entity.Service
	at  int64     // svc.LastSeen in Unix nanoseconds
	cal *calendar // the calendar that filed it
}

// live reports whether the entry still describes its host's record in the
// slot: the same record, last seen when filed. The caller holds the
// filing shard's lock.
func (e *calEntry) live() bool {
	return e.h.Service(e.svc.Key()) == e.svc && e.svc.LastSeen.UnixNano() == e.at
}

// cmpEntry is the canonical (address, port, transport) slot order. A
// record's address and slot never change, so it needs no lock.
func cmpEntry(a, b calEntry) int {
	if a.h != b.h {
		if c := a.h.IP.Compare(b.h.IP); c != 0 {
			return c
		}
	}
	return cmp.Or(cmp.Compare(a.svc.Port, b.svc.Port), cmp.Compare(a.svc.Transport, b.svc.Transport))
}

func hourOf(ns int64) int64 {
	h := ns / int64(time.Hour)
	if ns < 0 && ns%int64(time.Hour) != 0 {
		h--
	}
	return h
}

func newCalendar() calendar {
	return calendar{hours: make(map[int64][]calEntry), first: math.MaxInt64}
}

// file enters svc, just stored on h (entity id) or given a new LastSeen.
func (c *calendar) file(id string, h *entity.Host, svc *entity.Service) {
	c.put(calEntry{id: id, h: h, svc: svc, at: svc.LastSeen.UnixNano(), cal: c})
}

func (c *calendar) put(e calEntry) {
	hr := hourOf(e.at)
	list, ok := c.hours[hr]
	if !ok && len(c.spare) > 0 {
		list, c.spare = c.spare[len(c.spare)-1], c.spare[:len(c.spare)-1]
	}
	c.hours[hr] = append(list, e)
	c.first = min(c.first, hr)
}

// collect reads the hours up to cutoff's, appends the live entries last seen
// at or before cutoff to dst, files the later ones of cutoff's own hour back
// and drops the stale ones.
func (c *calendar) collect(cutoff int64, dst []calEntry) []calEntry {
	last := hourOf(cutoff)
	for hr := c.first; hr <= last; hr++ {
		list, ok := c.hours[hr]
		if !ok {
			continue
		}
		delete(c.hours, hr)
		for _, e := range list {
			switch {
			case !e.live():
			case e.at <= cutoff:
				dst = append(dst, e)
			default:
				c.put(e)
			}
		}
		clear(list)
		c.spare = append(c.spare, list[:0])
	}
	if c.first <= last {
		c.first = last + 1
		if _, ok := c.hours[last]; ok {
			c.first = last
		}
	}
	return dst
}

// DueSlot is one service slot whose refresh is due: its host's address and
// entity ID, and the slot and protocol its record names.
type DueSlot struct {
	Addr     netip.Addr
	ID       string
	Key      entity.ServiceKey
	Protocol string
}

// Due calls fn, in canonical (address, port, transport) order, for every
// materialized service — pending removal or not — last seen at or before
// cutoff. A slot stays due at every later cutoff until its LastSeen moves
// past that cutoff or it is removed: the due slots are kept, in order, from
// one call to the next, and a call reads only the calendar hours its cutoff
// has passed since, sorts what they make due and merges it in. Its cost
// tracks the due slots, not the records. Not safe for concurrent use with
// itself; fn must not call back into the Processor.
func (p *Processor) Due(cutoff time.Time, fn func(DueSlot)) {
	at := cutoff.UnixNano()
	for _, s := range p.shards {
		s.mu.Lock()
	}
	fresh := p.fresh
	for _, s := range p.shards {
		fresh = s.cal.collect(at, fresh)
	}
	slices.SortFunc(fresh, cmpEntry)
	merged := p.merged
	for i, j := 0, 0; i < len(p.due) || j < len(fresh); {
		var e calEntry
		if j == len(fresh) || i < len(p.due) && cmpEntry(p.due[i], fresh[j]) <= 0 {
			e = p.due[i]
			i++
			if !e.live() {
				continue
			}
			if e.at > at { // due at an earlier call's later cutoff
				e.cal.put(e)
				continue
			}
		} else {
			e = fresh[j]
			j++
		}
		merged = append(merged, e)
	}
	for _, s := range p.shards {
		s.mu.Unlock()
	}
	clear(fresh)
	p.fresh = fresh[:0]
	clear(p.due)
	p.due, p.merged = merged, p.due[:0]
	// A record's address, slot and protocol never change: read unlocked.
	for _, e := range p.due {
		fn(DueSlot{Addr: e.h.IP, ID: e.id, Key: e.svc.Key(), Protocol: e.svc.Protocol})
	}
}
