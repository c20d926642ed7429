//! Database population for experiments.

use fgl::{ClientCore, ObjectId, PageId, Result};
use fgl_common::rng::DetRng;
use std::sync::Arc;

/// Geometry of a populated database.
#[derive(Clone, Debug)]
pub struct DatabaseLayout {
    pub pages: Vec<PageId>,
    pub objects: Vec<ObjectId>,
    pub object_size: usize,
}

/// Populate `pages × objects_per_page` objects of `object_size` bytes via
/// `loader`, committing in batches. All caches are then warm only at the
/// loader; other clients start cold, as in a freshly loaded database.
pub fn populate(
    loader: &Arc<ClientCore>,
    pages: usize,
    objects_per_page: usize,
    object_size: usize,
) -> Result<DatabaseLayout> {
    let mut layout = DatabaseLayout {
        pages: Vec::with_capacity(pages),
        objects: Vec::with_capacity(pages * objects_per_page),
        object_size,
    };
    let mut rng = DetRng::new(0x00DB_5EED);
    let mut buf = vec![0u8; object_size];
    for _ in 0..pages {
        let t = loader.begin()?;
        let page = loader.create_page(t)?;
        layout.pages.push(page);
        for _ in 0..objects_per_page {
            rng.fill_bytes(&mut buf);
            let oid = loader.insert(t, page, &buf)?;
            layout.objects.push(oid);
        }
        loader.commit(t)?;
    }
    Ok(layout)
}

/// Like [`populate`], but each page is loaded by the client that the
/// partitioned workloads (PRIVATE, the hot region of HOTCOLD) assign it
/// to: page `i` of `pages` goes to client `i / (pages / n_clients)`.
/// Every client then starts out owning and caching its own region, so a
/// scaling sweep measures steady-state cost rather than the O(clients)
/// ownership handoff from a single loader. Layout order matches
/// [`populate`]: `layout.pages[i]` is workload page `i`.
pub fn populate_partitioned(
    clients: &[&Arc<ClientCore>],
    pages: usize,
    objects_per_page: usize,
    object_size: usize,
) -> Result<DatabaseLayout> {
    let mut layout = DatabaseLayout {
        pages: Vec::with_capacity(pages),
        objects: Vec::with_capacity(pages * objects_per_page),
        object_size,
    };
    let region = (pages / clients.len().max(1)).max(1);
    let mut rng = DetRng::new(0x00DB_5EED);
    let mut buf = vec![0u8; object_size];
    for i in 0..pages {
        let loader = clients[(i / region).min(clients.len() - 1)];
        let t = loader.begin()?;
        let page = loader.create_page(t)?;
        layout.pages.push(page);
        for _ in 0..objects_per_page {
            rng.fill_bytes(&mut buf);
            let oid = loader.insert(t, page, &buf)?;
            layout.objects.push(oid);
        }
        loader.commit(t)?;
    }
    Ok(layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl::{System, SystemConfig};

    #[test]
    fn populate_creates_expected_geometry() {
        let sys = System::build(SystemConfig::default(), 1).unwrap();
        let layout = populate(sys.client(0), 4, 8, 32).unwrap();
        assert_eq!(layout.pages.len(), 4);
        assert_eq!(layout.objects.len(), 32);
        // Every object is readable.
        let c = sys.client(0);
        let t = c.begin().unwrap();
        for o in &layout.objects {
            assert_eq!(c.read(t, *o).unwrap().len(), 32);
        }
        c.commit(t).unwrap();
    }

    #[test]
    fn populate_partitioned_spreads_loaders_and_keeps_order() {
        let sys = System::build(SystemConfig::default(), 4).unwrap();
        let loaders: Vec<_> = (0..4).map(|i| sys.client(i)).collect();
        let layout = populate_partitioned(&loaders, 8, 2, 16).unwrap();
        assert_eq!(layout.pages.len(), 8);
        assert_eq!(layout.objects.len(), 16);
        // Client i loaded pages [2i, 2i+2) and can read them back with no
        // ownership handoff having happened.
        for (c, loader) in loaders.iter().enumerate() {
            let t = loader.begin().unwrap();
            for o in &layout.objects[c * 4..(c + 1) * 4] {
                assert_eq!(loader.read(t, *o).unwrap().len(), 16);
            }
            loader.commit(t).unwrap();
        }
    }

    #[test]
    fn populated_pages_fit_page_size() {
        // 16 objects of 64 bytes + slot entries must fit in 4 KiB.
        let sys = System::build(SystemConfig::default(), 1).unwrap();
        let layout = populate(sys.client(0), 2, 16, 64).unwrap();
        assert_eq!(layout.objects.len(), 32);
    }
}
