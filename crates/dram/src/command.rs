//! DRAM commands and memory-controller requests.

use serde::{Deserialize, Serialize};

/// A DRAM command as issued on the command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DramCommand {
    /// Open (activate) a row in a bank.
    Activate {
        /// Row to open.
        row: u64,
    },
    /// Close the open row of a bank.
    Precharge,
    /// Read one column burst from the open row.
    Read {
        /// Column (in column-access units).
        column: u64,
    },
    /// All-bank refresh.
    Refresh,
}

impl DramCommand {
    /// Short mnemonic, matching Ramulator-style trace output.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            DramCommand::Activate { .. } => "ACT",
            DramCommand::Precharge => "PRE",
            DramCommand::Read { .. } => "RD",
            DramCommand::Refresh => "REF",
        }
    }
}

impl core::fmt::Display for DramCommand {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DramCommand::Activate { row } => write!(f, "ACT(row={row})"),
            DramCommand::Read { column } => write!(f, "RD(col={column})"),
            other => f.write_str(other.mnemonic()),
        }
    }
}

/// One column-granularity read for a [`Controller`](crate::Controller).
///
/// Requests address a bank directly by flat index within the controller's
/// bank set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemRequest {
    /// Flat bank index within the controller's bank set.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Column within the row (column-access units).
    pub column: u64,
}

impl MemRequest {
    /// A read of `column` in `row` of `bank`.
    pub fn read(bank: usize, row: u64, column: u64) -> Self {
        Self { bank, row, column }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics() {
        assert_eq!(DramCommand::Activate { row: 3 }.mnemonic(), "ACT");
        assert_eq!(DramCommand::Precharge.mnemonic(), "PRE");
        assert_eq!(DramCommand::Read { column: 0 }.mnemonic(), "RD");
        assert_eq!(DramCommand::Refresh.mnemonic(), "REF");
    }

    #[test]
    fn display_includes_operands() {
        assert_eq!(DramCommand::Activate { row: 7 }.to_string(), "ACT(row=7)");
        assert_eq!(DramCommand::Read { column: 5 }.to_string(), "RD(col=5)");
        assert_eq!(DramCommand::Refresh.to_string(), "REF");
    }

    #[test]
    fn request_constructors() {
        let r = MemRequest::read(3, 10, 2);
        assert_eq!((r.bank, r.row, r.column), (3, 10, 2));
    }
}
