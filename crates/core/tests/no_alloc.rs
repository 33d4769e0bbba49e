//! The batched WCMA kernels size every buffer at construction: observing
//! a slot allocates nothing, however long the stream.

use solar_predict::{CandidateBank, CausalDynamicWcma, KWindowPolicy, Predictor};
use solar_predict::{WcmaParams, WcmaParamsBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(run: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    run();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn observing_a_slot_allocates_nothing() {
    let n = 24;
    let samples: Vec<f64> = (0..n * 12)
        .map(|step| match step % n {
            slot @ 6..=17 => 100.0 + ((step * 7919) % 97) as f64 * 9.0 + slot as f64,
            _ => 0.0,
        })
        .collect();
    let mut causal = CausalDynamicWcma::new(5, 6, vec![0.0, 0.5, 1.0], 0.9, n).unwrap();
    let clamped = WcmaParamsBuilder::new()
        .alpha(0.4)
        .days(3)
        .k(4)
        .slots_per_day(n)
        .k_policy(KWindowPolicy::ClampRenormalize)
        .build()
        .unwrap();
    let mut bank = CandidateBank::new(vec![
        WcmaParams::new(0.7, 10, 2, n).unwrap(),
        WcmaParams::new(0.3, 3, 6, n).unwrap(),
        clamped,
    ])
    .unwrap();
    let allocations = allocations_during(|| {
        for &measured in &samples {
            causal.observe_and_predict(measured);
            bank.observe_and_predict(measured);
        }
    });
    assert_eq!(allocations, 0);
}
