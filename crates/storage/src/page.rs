//! Slotted page layout for variable-length records.
//!
//! Classic textbook layout: a 4-byte header (`n_slots`, `free_end`), a slot
//! directory growing forward from the header, and record bodies growing
//! backward from the end of the page. Deleting a record leaves a tombstone
//! slot (so record ids of other records stay stable); the space is reclaimed
//! by an in-place compaction when a later insert needs it.
//!
//! All multi-byte fields are little-endian `u16`, which bounds the page size
//! at 64 KiB — far above the paper's 4000-byte pages.

use trijoin_common::{Error, Result};

const HEADER: usize = 4;
const SLOT: usize = 4;

/// An owned slotted page. Construct empty with [`SlottedPage::new`] or wrap
/// bytes read from disk with [`SlottedPage::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlottedPage {
    data: Vec<u8>,
}

impl SlottedPage {
    /// How many records of `record_len` bytes one page of `page_size`
    /// bytes holds, slot directory included.
    pub fn records_per_page(page_size: usize, record_len: usize) -> usize {
        page_size.saturating_sub(HEADER) / (record_len + SLOT)
    }

    /// A fresh, empty page of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        assert!(page_size >= HEADER + SLOT, "page too small");
        assert!(page_size <= u16::MAX as usize, "page too large for u16 offsets");
        let mut data = vec![0u8; page_size];
        write_u16(&mut data, 0, 0); // n_slots
        write_u16(&mut data, 2, page_size as u16); // free_end
        SlottedPage { data }
    }

    /// Wrap raw page bytes (e.g. read from [`crate::SimDisk`]), validating
    /// the header.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self> {
        if data.len() < HEADER + SLOT {
            return Err(Error::Corrupt("slotted page smaller than header".into()));
        }
        let page = SlottedPage { data };
        let n = page.num_slots() as usize;
        let free_end = page.free_end();
        if HEADER + n * SLOT > free_end || free_end > page.data.len() {
            return Err(Error::Corrupt(format!(
                "slotted page header inconsistent: {n} slots, free_end {free_end}"
            )));
        }
        Ok(page)
    }

    /// Borrow the raw bytes (for writing back to disk).
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Total slots in the directory, including tombstones.
    pub fn num_slots(&self) -> u16 {
        read_u16(&self.data, 0)
    }

    /// Number of live (non-deleted) records.
    pub fn live_count(&self) -> usize {
        (0..self.num_slots()).filter(|&s| self.slot_len(s) != 0).count()
    }

    fn free_end(&self) -> usize {
        let raw = read_u16(&self.data, 2) as usize;
        // free_end == page_size is encoded as page_size (fits u16 for our
        // 4000-byte pages; the constructor rejects pages > 64 KiB).
        raw
    }

    fn set_free_end(&mut self, v: usize) {
        write_u16(&mut self.data, 2, v as u16);
    }

    fn set_num_slots(&mut self, v: u16) {
        write_u16(&mut self.data, 0, v);
    }

    fn slot_off(&self, slot: u16) -> usize {
        read_u16(&self.data, HEADER + slot as usize * SLOT) as usize
    }

    fn slot_len(&self, slot: u16) -> usize {
        read_u16(&self.data, HEADER + slot as usize * SLOT + 2) as usize
    }

    fn set_slot(&mut self, slot: u16, off: usize, len: usize) {
        write_u16(&mut self.data, HEADER + slot as usize * SLOT, off as u16);
        write_u16(&mut self.data, HEADER + slot as usize * SLOT + 2, len as u16);
    }

    /// Contiguous free bytes between the slot directory and the record area.
    pub fn contiguous_free(&self) -> usize {
        self.free_end() - (HEADER + self.num_slots() as usize * SLOT)
    }

    /// Free bytes available to an insert that may reuse a tombstone slot
    /// after compaction.
    pub fn usable_free(&self) -> usize {
        let live: usize = (0..self.num_slots()).map(|s| self.slot_len(s)).sum();
        let dir = HEADER + self.num_slots() as usize * SLOT;
        self.data.len() - dir - live
    }

    /// True if a record of `len` bytes fits (possibly after compaction).
    pub fn fits(&self, len: usize) -> bool {
        let slot_cost = if self.first_tombstone().is_some() { 0 } else { SLOT };
        len + slot_cost <= self.usable_free()
    }

    fn first_tombstone(&self) -> Option<u16> {
        (0..self.num_slots()).find(|&s| self.slot_len(s) == 0)
    }

    /// Insert a record, returning its slot id. Compacts if fragmented.
    pub fn insert(&mut self, record: &[u8]) -> Result<u16> {
        if record.is_empty() {
            return Err(Error::Invariant("cannot store empty record".into()));
        }
        if !self.fits(record.len()) {
            return Err(Error::PageOverflow {
                needed: record.len(),
                available: self.usable_free(),
            });
        }
        let reuse = self.first_tombstone();
        let slot_cost = if reuse.is_some() { 0 } else { SLOT };
        if self.contiguous_free() < record.len() + slot_cost {
            self.compact();
        }
        let slot = match reuse {
            Some(s) => s,
            None => {
                let s = self.num_slots();
                self.set_num_slots(s + 1);
                s
            }
        };
        let new_end = self.free_end() - record.len();
        self.data[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_free_end(new_end);
        self.set_slot(slot, new_end, record.len());
        Ok(slot)
    }

    /// Read a live record.
    pub fn get(&self, slot: u16) -> Result<&[u8]> {
        if slot >= self.num_slots() || self.slot_len(slot) == 0 {
            return Err(Error::SlotNotFound { slot });
        }
        let off = self.slot_off(slot);
        let len = self.slot_len(slot);
        Ok(&self.data[off..off + len])
    }

    /// Delete a record, leaving a tombstone. Other slot ids are unaffected.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        if slot >= self.num_slots() || self.slot_len(slot) == 0 {
            return Err(Error::SlotNotFound { slot });
        }
        self.set_slot(slot, 0, 0);
        Ok(())
    }

    /// Iterate live records as `(slot, bytes)` pairs, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.num_slots()).filter_map(move |s| {
            let len = self.slot_len(s);
            if len == 0 {
                None
            } else {
                let off = self.slot_off(s);
                Some((s, &self.data[off..off + len]))
            }
        })
    }

    /// Rewrite the record area contiguously, dropping dead space. Slot ids
    /// are preserved.
    fn compact(&mut self) {
        let mut live: Vec<(u16, Vec<u8>)> = self.iter().map(|(s, rec)| (s, rec.to_vec())).collect();
        // Place records from the page end downward, in descending slot order
        // (order is irrelevant for correctness; this keeps it deterministic).
        live.sort_by_key(|(s, _)| *s);
        let mut end = self.data.len();
        for (slot, rec) in live.into_iter().rev() {
            end -= rec.len();
            self.data[end..end + rec.len()].copy_from_slice(&rec);
            self.set_slot(slot, end, rec.len());
        }
        self.set_free_end(end);
    }
}

/// Walk the live records of a raw page image *without* taking ownership of
/// the bytes: the zero-copy counterpart of
/// `SlottedPage::from_bytes(..)?.iter()`, for callers that hold a borrowed
/// page (e.g. inside [`crate::SimDisk::read_page_with`]) and decode records
/// in place. Same slot order, same tombstone skipping; slot entries that
/// point outside the page fail as corrupt instead of panicking.
pub fn for_each_record(data: &[u8], mut f: impl FnMut(u16, &[u8])) -> Result<()> {
    if data.len() < HEADER + SLOT {
        return Err(Error::Corrupt("slotted page smaller than header".into()));
    }
    let n = read_u16(data, 0);
    let free_end = read_u16(data, 2) as usize;
    if HEADER + n as usize * SLOT > free_end || free_end > data.len() {
        return Err(Error::Corrupt(format!(
            "slotted page header inconsistent: {n} slots, free_end {free_end}"
        )));
    }
    for slot in 0..n {
        let len = read_u16(data, HEADER + slot as usize * SLOT + 2) as usize;
        if len == 0 {
            continue;
        }
        let off = read_u16(data, HEADER + slot as usize * SLOT) as usize;
        let rec = data
            .get(off..off + len)
            .ok_or_else(|| Error::Corrupt(format!("slot {slot} points outside the page")))?;
        f(slot, rec);
    }
    Ok(())
}

fn read_u16(data: &[u8], at: usize) -> u16 {
    u16::from_le_bytes(data[at..at + 2].try_into().unwrap())
}

fn write_u16(data: &mut [u8], at: usize, v: u16) {
    data[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut p = SlottedPage::new(4000);
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"beta").unwrap();
        assert_eq!(p.get(a).unwrap(), b"alpha");
        assert_eq!(p.get(b).unwrap(), b"beta");
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn delete_leaves_stable_slots() {
        let mut p = SlottedPage::new(4000);
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"bb").unwrap();
        let c = p.insert(b"ccc").unwrap();
        p.delete(b).unwrap();
        assert!(p.get(b).is_err());
        assert_eq!(p.get(a).unwrap(), b"a");
        assert_eq!(p.get(c).unwrap(), b"ccc");
        assert_eq!(p.live_count(), 2);
        // Double delete errors.
        assert!(p.delete(b).is_err());
    }

    #[test]
    fn tombstone_slot_is_reused() {
        let mut p = SlottedPage::new(4000);
        let _a = p.insert(b"one").unwrap();
        let b = p.insert(b"two").unwrap();
        p.delete(b).unwrap();
        let c = p.insert(b"three").unwrap();
        assert_eq!(c, b, "tombstone slot should be reused");
        assert_eq!(p.get(c).unwrap(), b"three");
    }

    #[test]
    fn fills_to_capacity_and_rejects_overflow() {
        let mut p = SlottedPage::new(256);
        let rec = [0xAAu8; 20];
        let mut count = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            count += 1;
        }
        assert!(count >= (256 - 4) / (20 + 4) - 1);
        let err = p.insert(&rec).unwrap_err();
        assert!(matches!(err, Error::PageOverflow { .. }));
        // All records still intact.
        assert_eq!(p.live_count(), count);
        for (_, r) in p.iter() {
            assert_eq!(r, &rec);
        }
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut p = SlottedPage::new(128);
        // Fill with 3 × 30-byte records: 4 + 3*4 + 90 = 106 <= 128.
        let s0 = p.insert(&[1u8; 30]).unwrap();
        let s1 = p.insert(&[2u8; 30]).unwrap();
        let s2 = p.insert(&[3u8; 30]).unwrap();
        // No room for a 40-byte record now.
        assert!(!p.fits(40));
        p.delete(s1).unwrap();
        // 30 bytes reclaimed + tombstone slot -> a 40-byte record fits after
        // compaction even though the hole is mid-page.
        assert!(p.fits(40));
        let s3 = p.insert(&[4u8; 40]).unwrap();
        assert_eq!(s3, s1);
        assert_eq!(p.get(s0).unwrap(), &[1u8; 30][..]);
        assert_eq!(p.get(s2).unwrap(), &[3u8; 30][..]);
        assert_eq!(p.get(s3).unwrap(), &[4u8; 40][..]);
    }

    #[test]
    fn bytes_roundtrip_through_disk_format() {
        let mut p = SlottedPage::new(512);
        p.insert(b"persist me").unwrap();
        let raw = p.bytes().to_vec();
        let q = SlottedPage::from_bytes(raw).unwrap();
        assert_eq!(q, p);
        assert_eq!(q.iter().next().unwrap().1, b"persist me");
    }

    #[test]
    fn from_bytes_rejects_corrupt_header() {
        let mut raw = vec![0u8; 64];
        raw[0] = 200; // 200 slots cannot fit in 64 bytes
        raw[2..4].copy_from_slice(&(64u16).to_le_bytes());
        assert!(SlottedPage::from_bytes(raw).is_err());
        assert!(SlottedPage::from_bytes(vec![0u8; 2]).is_err());
    }

    #[test]
    fn iter_skips_tombstones_in_slot_order() {
        let mut p = SlottedPage::new(4000);
        let slots: Vec<u16> = (0..5).map(|i| p.insert(&[i as u8 + 1; 8]).unwrap()).collect();
        p.delete(slots[1]).unwrap();
        p.delete(slots[3]).unwrap();
        let seen: Vec<u16> = p.iter().map(|(s, _)| s).collect();
        assert_eq!(seen, vec![slots[0], slots[2], slots[4]]);
    }

    #[test]
    fn empty_record_rejected() {
        let mut p = SlottedPage::new(128);
        assert!(p.insert(b"").is_err());
    }

    #[test]
    fn borrowed_walkers_match_owned_page() {
        let mut p = SlottedPage::new(512);
        let slots: Vec<u16> = (0..4).map(|i| p.insert(&[i as u8 + 1; 6]).unwrap()).collect();
        p.delete(slots[2]).unwrap();
        let raw = p.bytes();
        let mut seen = Vec::new();
        for_each_record(raw, |s, rec| seen.push((s, rec.to_vec()))).unwrap();
        let owned: Vec<(u16, Vec<u8>)> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(seen, owned);
        assert!(for_each_record(&[0u8; 2], |_, _| ()).is_err());
    }
}
