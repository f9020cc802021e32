//! Harmonia's command-based interface (§3.3.3).
//!
//! Instead of exposing per-platform register sequences to host software,
//! Harmonia abstracts control operations into commands carried in a
//! packet format (Figure 9) and executed by a **unified control kernel**
//! running on a soft core inside the FPGA. Software calls
//! `cmd_read`/`cmd_write`; the kernel parses the packet, executes the
//! command's platform-specific register program, and returns a response
//! packet — so register details can change across platforms while the
//! command stream does not.
//!
//! * [`packet`] — the command packet format with encode/decode/checksum;
//! * [`codes`] — command codes (Figure 9's table plus extensions) and
//!   source/destination ids;
//! * [`kernel`] — the unified control kernel: buffering, parsing,
//!   execution, distribution to module register files, response
//!   encapsulation;
//! * [`queue`] — the SQ/CQ ring pair for the batched command path
//!   (doorbell batching amortizes per-command delivery cost).

pub mod codes;
pub mod kernel;
pub mod packet;
pub mod queue;

pub use codes::{CommandCode, SrcId};
pub use kernel::{DrainOutcome, KernelError, ModuleHandle, UnifiedControlKernel};
pub use packet::{CommandPacket, DecodeError, IDEMPOTENCY_FLAG};
pub use queue::{
    CommandBudget, CompletionQueue, CompletionRecord, CompletionStatus, SqDescriptor,
    SubmissionQueue,
};
