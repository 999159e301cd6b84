//! The durable catalog: a JSON manifest of the database's structures,
//! stored in the backend's file 0.
//!
//! [`crate::Database`]'s in-memory handles (B⁺-tree roots, heights, entry
//! counts, relation names) are not stored in the page images themselves —
//! the paper's cost model never prices reading them back, so they live
//! outside the trees. For the durable backends that state must survive a
//! restart, so every commit serializes it here: a compact JSON document
//! chunked across the pages of file 0 behind an 8-byte length header.
//!
//! Catalog I/O is deliberately *free* of simulated charge (it is part of
//! opening/committing the database, like initial loading, which the paper
//! does not price); durability cost is charged by the WAL commit itself
//! (`wal.*` accounting in [`trijoin_storage::SimDisk::commit`]). The
//! catalog pages still flow through the WAL like any other page write, so
//! a crash between commits can never tear the manifest: recovery rewinds
//! it to the last commit together with the tree pages it describes.

use trijoin_common::{Error, Json, Result};
use trijoin_storage::{Disk, DurableBackend, FileId, PageId};

/// The catalog always lives in the backend's first file. `Database`'s
/// durable constructors create it before any relation so the id is fixed.
pub const CATALOG_FILE: FileId = DurableBackend::CATALOG;

/// Manifest schema version (bumped on incompatible layout changes).
pub const CATALOG_VERSION: u64 = 5;

/// Serialize `manifest` into file 0: page 0 holds `[len: u64 LE]` followed
/// by the first chunk; pages 1.. hold full-page chunks. Pages are allocated
/// as needed (the file only grows; a shrinking manifest leaves stale tail
/// pages that the next header simply ignores). Free of simulated charge.
pub fn write_catalog(disk: &Disk, manifest: &Json) -> Result<()> {
    let text = manifest.dump();
    let bytes = text.as_bytes();
    let ps = disk.page_size();
    let first_cap = ps - 8;

    let mut pages: Vec<Vec<u8>> = Vec::new();
    let mut page0 = vec![0u8; ps];
    page0[..8].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
    let n0 = bytes.len().min(first_cap);
    page0[8..8 + n0].copy_from_slice(&bytes[..n0]);
    pages.push(page0);
    let mut off = n0;
    while off < bytes.len() {
        let n = (bytes.len() - off).min(ps);
        let mut p = vec![0u8; ps];
        p[..n].copy_from_slice(&bytes[off..off + n]);
        pages.push(p);
        off += n;
    }

    let have = disk.num_pages(CATALOG_FILE)?;
    for _ in have as usize..pages.len() {
        disk.allocate_page(CATALOG_FILE)?;
    }
    for (i, p) in pages.iter().enumerate() {
        disk.write_page_free(PageId::new(CATALOG_FILE, i as u32), p)?;
    }
    Ok(())
}

/// Read the manifest back from file 0. Free of simulated charge.
pub fn read_catalog(disk: &Disk) -> Result<Json> {
    let ps = disk.page_size();
    let page0 = disk.read_page_free(PageId::new(CATALOG_FILE, 0))?;
    let len = u64::from_le_bytes(page0[..8].try_into().unwrap()) as usize;
    let cap = disk.num_pages(CATALOG_FILE)? as usize * ps;
    if len > cap {
        return Err(Error::Corrupt(format!(
            "catalog header claims {len} bytes but file 0 holds at most {cap}"
        )));
    }
    let mut bytes = Vec::with_capacity(len);
    let n0 = len.min(ps - 8);
    bytes.extend_from_slice(&page0[8..8 + n0]);
    let mut page = 1u32;
    while bytes.len() < len {
        let p = disk.read_page_free(PageId::new(CATALOG_FILE, page))?;
        let n = (len - bytes.len()).min(ps);
        bytes.extend_from_slice(&p[..n]);
        page += 1;
    }
    let text = std::str::from_utf8(&bytes)
        .map_err(|_| Error::Corrupt("catalog is not valid UTF-8".into()))?;
    Json::parse(text).map_err(|e| Error::Corrupt(format!("catalog parse error: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trijoin_common::{Cost, SystemParams};
    use trijoin_storage::SimDisk;

    fn disk() -> Disk {
        let params = SystemParams { page_size: 128, ..SystemParams::paper_defaults() };
        SimDisk::new(&params, Cost::new())
    }

    #[test]
    fn roundtrips_multi_page_manifests_free_of_charge() {
        let d = disk();
        assert_eq!(d.create_file(), CATALOG_FILE);
        // Big enough to span several 128-byte pages.
        let mut m = Json::obj().set("version", CATALOG_VERSION);
        for i in 0..20u64 {
            m = m.set(&format!("k{i}"), format!("value-{i}-{}", "x".repeat(17)));
        }
        write_catalog(&d, &m).unwrap();
        assert!(d.num_pages(CATALOG_FILE).unwrap() > 1);
        let back = read_catalog(&d).unwrap();
        assert_eq!(back, m);
        assert!(d.cost().total().is_zero(), "catalog I/O must be free");
    }

    #[test]
    fn rewrite_with_smaller_manifest_ignores_stale_tail() {
        let d = disk();
        assert_eq!(d.create_file(), CATALOG_FILE);
        let big = Json::obj().set("blob", "y".repeat(500));
        write_catalog(&d, &big).unwrap();
        let small = Json::obj().set("version", 2u64);
        write_catalog(&d, &small).unwrap();
        assert_eq!(read_catalog(&d).unwrap(), small);
    }

    #[test]
    fn oversized_header_is_corrupt_not_panic() {
        let d = disk();
        assert_eq!(d.create_file(), CATALOG_FILE);
        write_catalog(&d, &Json::obj().set("a", 1u64)).unwrap();
        let mut raw = d.read_page_free(PageId::new(CATALOG_FILE, 0)).unwrap();
        raw[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        d.write_page_free(PageId::new(CATALOG_FILE, 0), &raw).unwrap();
        assert!(matches!(read_catalog(&d), Err(Error::Corrupt(_))));
    }
}
