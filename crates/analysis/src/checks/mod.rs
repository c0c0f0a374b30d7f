//! The check catalog. Code structure comes from [`crate::ast`] only.

mod hold_blocking;
mod lock_order;

use crate::Check;

/// Every registered check, in catalog order.
pub fn all() -> Vec<Box<dyn Check>> {
    vec![Box::new(lock_order::LockOrder), Box::new(hold_blocking::HoldBlocking)]
}
