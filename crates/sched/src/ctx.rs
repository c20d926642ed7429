//! Stackful context switching.
//!
//! One tiny assembly routine, `fgl_sched_switch(save, load)`, stores the
//! callee-saved register set and the stack pointer of the caller, writes
//! the resulting stack pointer to `*save`, switches to the stack pointer
//! `load`, restores the register set found there and returns into
//! whatever return address that stack holds. A task's very first
//! activation returns into [`bootstrap`]'s trampoline entry; every later
//! activation returns into the `fgl_sched_switch` call the task suspended
//! in.
//!
//! Only the integer callee-saved registers are switched: on x86-64 SysV
//! the vector registers are all caller-saved, so the compiler has already
//! spilled any live ones around the `extern "C"` call.
//!
//! On architectures without an implementation here, [`SUPPORTED`] is
//! `false` and the scheduler falls back to one OS thread per task,
//! keeping the build portable.

#[cfg(target_arch = "x86_64")]
mod imp {
    std::arch::global_asm!(
        ".text",
        ".globl fgl_sched_switch",
        ".hidden fgl_sched_switch",
        ".align 16",
        "fgl_sched_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    );

    extern "C" {
        pub fn fgl_sched_switch(save: *mut *mut u8, load: *mut u8);
    }

    pub const SUPPORTED: bool = true;

    /// Lay out a bootstrap frame on a fresh stack so that the first
    /// switch into it "returns" into `entry` with the ABI-required stack
    /// alignment (rsp ≡ 8 mod 16 at function entry). Returns the initial
    /// stack pointer to hand to `fgl_sched_switch`.
    ///
    /// # Safety
    /// `stack_top` must point one-past-the-end of a writable region with
    /// at least 128 bytes below it.
    pub unsafe fn bootstrap(stack_top: *mut u8, entry: extern "C" fn() -> !) -> *mut u8 {
        let top = (stack_top as usize) & !15usize;
        let mut sp = top as *mut usize;
        // Fake return address: stops unwinders and faults loudly if the
        // trampoline ever returned.
        sp = sp.sub(1);
        *sp = 0;
        // `ret` target of the first switch.
        sp = sp.sub(1);
        *sp = entry as usize;
        // Zeroed r15, r14, r13, r12, rbx, rbp.
        for _ in 0..6 {
            sp = sp.sub(1);
            *sp = 0;
        }
        sp as *mut u8
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    pub const SUPPORTED: bool = false;

    /// # Safety
    /// Never called when `SUPPORTED` is false.
    pub unsafe fn fgl_sched_switch(_save: *mut *mut u8, _load: *mut u8) {
        unreachable!("context switch on unsupported architecture")
    }

    /// # Safety
    /// Never called when `SUPPORTED` is false.
    pub unsafe fn bootstrap(_stack_top: *mut u8, _entry: extern "C" fn() -> !) -> *mut u8 {
        unreachable!("bootstrap on unsupported architecture")
    }
}

pub use imp::{bootstrap, fgl_sched_switch, SUPPORTED};
