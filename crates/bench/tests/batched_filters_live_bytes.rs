//! Live-bytes contract for a prepared Winograd bank.
//!
//! After `BatchedFilters::new` returns, the bank's only copy of the
//! transformed coefficients is its packed GEMM `A` panels: the bytes it
//! keeps alive are at most `Σ_uv packed_plane(uv).bytes()` plus the
//! panels' block-offset tables and a small fixed overhead. A retained
//! row-major plane copy (`α²·N·C` floats) would break the bound by
//! hundreds of KiB at the shape below.
//!
//! Counting `GlobalAlloc`s live in their own single-test integration
//! binaries so no other test's allocations pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use winofuse_conv::cook_toom::f43;
use winofuse_conv::gemm::{GemmBlocking, PackedA};
use winofuse_conv::tensor::random_tensor;
use winofuse_conv::winograd::BatchedFilters;

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

#[test]
fn batched_filters_keep_only_the_packed_panels() {
    let (out_c, in_c) = (64usize, 64usize);
    let kernels = random_tensor(out_c, in_c, 3, 3, 5);
    let transform = f43();

    let before = LIVE.load(Ordering::Relaxed);
    let bank = BatchedFilters::new(&kernels, &transform).unwrap();
    let kept = (LIVE.load(Ordering::Relaxed) - before) as u64;

    let alpha = bank.alpha();
    let panels: u64 = (0..alpha * alpha)
        .map(|uv| bank.packed_plane(uv).bytes())
        .sum();
    // One `usize` offset per (KC, MC) block of every plane.
    let b = GemmBlocking::default();
    let blocks = in_c.div_ceil(b.kc) * out_c.div_ceil(b.mc);
    let offsets = (alpha * alpha * blocks * std::mem::size_of::<usize>()) as u64;
    // Plane headers, plus the transform's nonzero tables.
    let overhead = (alpha * alpha * std::mem::size_of::<PackedA>()) as u64 + 2048;
    assert!(
        kept <= panels + offsets + overhead,
        "BatchedFilters::new kept {kept} B live; panels {panels} B + offsets {offsets} B \
         + {overhead} B overhead allowed (a second coefficient copy is {} B)",
        alpha * alpha * out_c * in_c * 4
    );
    drop(bank);
}
