//! Storage substrate for the `fgl` page-server system: the slotted page
//! format with PSN bookkeeping, the page-copy merge procedure of §2/§3.1,
//! the space allocation map (PSN seeding on allocation, after \[18\]), disk
//! backends, and a policy-free buffer pool used by both the client cache
//! and the server buffer pool.

pub mod bufferpool;
pub mod disk;
pub mod merge;
pub mod page;
pub mod spacemap;

pub use bufferpool::{BufferPool, EvictedPage};
pub use disk::{DiskBackend, DiskStats, FileDisk, MemDisk, SimDisk};
pub use merge::{merge_into, merge_pages};
pub use page::{Page, PAGE_HEADER_SIZE, SLOT_ENTRY_SIZE};
pub use spacemap::SpaceMap;
