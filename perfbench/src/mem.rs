//! Heap high-water mark for `peak_mem_mb`: the bytes malloc reports in
//! use (`mallinfo2`: arena chunks plus mmapped blocks), sampled every
//! millisecond by a thread while a [`PeakWindow`] is open. This measures
//! what the SEMEX code (and the in-process server) holds, not memory the
//! allocator keeps after frees, and adds nothing to the allocation path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn heap_in_use() -> usize {
    #[repr(C)]
    struct Mallinfo2 {
        arena: usize,
        ordblks: usize,
        smblks: usize,
        hblks: usize,
        hblkhd: usize,
        usmblks: usize,
        fsmblks: usize,
        uordblks: usize,
        fordblks: usize,
        keepcost: usize,
    }
    extern "C" {
        fn mallinfo2() -> Mallinfo2;
    }
    // SAFETY: `mallinfo2` takes no arguments, returns the struct by value
    // (laid out as declared in glibc's <malloc.h>, glibc >= 2.33) and is
    // safe to call from any thread.
    let info = unsafe { mallinfo2() };
    info.uordblks + info.hblkhd
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn heap_in_use() -> usize {
    0
}

/// A sampler thread tracking the highest heap-in-use until
/// [`PeakWindow::finish`].
pub struct PeakWindow {
    stop: Arc<AtomicBool>,
    sampler: JoinHandle<usize>,
}

impl PeakWindow {
    pub fn start() -> PeakWindow {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let mut peak = heap_in_use();
            while !flag.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
                peak = peak.max(heap_in_use());
            }
            peak.max(heap_in_use())
        });
        PeakWindow { stop, sampler }
    }

    /// Stop sampling; the peak heap bytes in use seen.
    pub fn finish(self) -> usize {
        self.stop.store(true, Ordering::SeqCst);
        self.sampler.join().expect("memory sampler panicked")
    }
}
