//! Lock modes, compatibility, and the lock-target vocabulary.

use fgl_common::{ObjectId, PageId};

/// Object-level lock mode (the paper's fine granularity, §2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjMode {
    S,
    X,
}

impl ObjMode {
    /// Is a holder in `self` compatible with another holder in `other`?
    pub fn compatible(self, other: ObjMode) -> bool {
        matches!((self, other), (ObjMode::S, ObjMode::S))
    }

    /// Does a held `self` already cover a request for `req`?
    pub fn covers(self, req: ObjMode) -> bool {
        self >= req
    }

    /// The page-level intention mode implied by an object request.
    pub fn intent(self) -> Mode {
        match self {
            ObjMode::S => Mode::IS,
            ObjMode::X => Mode::IX,
        }
    }

    pub fn as_page_mode(self) -> Mode {
        match self {
            ObjMode::S => Mode::S,
            ObjMode::X => Mode::X,
        }
    }
}

/// Page-level lock mode, including intents (standard hierarchy with SIX).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    IS,
    IX,
    S,
    SIX,
    X,
}

impl Mode {
    /// Standard hierarchical compatibility matrix (Gray's, with SIX).
    pub fn compatible(self, other: Mode) -> bool {
        use Mode::*;
        matches!(
            (self, other),
            (IS, IS)
                | (IS, IX)
                | (IS, S)
                | (IS, SIX)
                | (IX, IS)
                | (IX, IX)
                | (S, IS)
                | (S, S)
                | (SIX, IS)
        )
    }

    /// Least upper bound of two held modes (the lock table keeps one mode
    /// per client per page): IS < {IX, S} < SIX < X, lub(IX, S) = SIX.
    pub fn lub(self, other: Mode) -> Mode {
        use Mode::*;
        match (self, other) {
            (X, _) | (_, X) => X,
            (SIX, _) | (_, SIX) => SIX,
            (S, IX) | (IX, S) => SIX,
            (S, _) | (_, S) => S,
            (IX, _) | (_, IX) => IX,
            (IS, IS) => IS,
        }
    }

    /// Does a held `self` cover a request for `req`?
    pub fn covers(self, req: Mode) -> bool {
        self.lub(req) == self
    }
}

/// What a client asks the global lock manager for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockTarget {
    /// A fine-granularity object lock (§2). Carries its implied page
    /// intent.
    Object(ObjectId, ObjMode),
    /// A page lock: page-granularity configurations, structural
    /// (non-mergeable) updates (§3.1), and the initial request of the
    /// adaptive scheme.
    Page(PageId, ObjMode),
    /// Adaptive request (\[3\]): ask for the page, but when a page-level
    /// conflict exists, de-escalate the holders and fall back to the
    /// embedded object request instead.
    PageAdaptive(PageId, ObjMode, ObjectId),
}

impl LockTarget {
    pub fn page(&self) -> PageId {
        match self {
            LockTarget::Object(o, _) => o.page,
            LockTarget::Page(p, _) => *p,
            LockTarget::PageAdaptive(p, _, _) => *p,
        }
    }

    pub fn mode(&self) -> ObjMode {
        match self {
            LockTarget::Object(_, m)
            | LockTarget::Page(_, m)
            | LockTarget::PageAdaptive(_, m, _) => *m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgl_common::SlotId;

    #[test]
    fn obj_mode_compat() {
        assert!(ObjMode::S.compatible(ObjMode::S));
        assert!(!ObjMode::S.compatible(ObjMode::X));
        assert!(!ObjMode::X.compatible(ObjMode::S));
        assert!(!ObjMode::X.compatible(ObjMode::X));
    }

    #[test]
    fn obj_mode_covers() {
        assert!(ObjMode::X.covers(ObjMode::S));
        assert!(ObjMode::X.covers(ObjMode::X));
        assert!(ObjMode::S.covers(ObjMode::S));
        assert!(!ObjMode::S.covers(ObjMode::X));
    }

    #[test]
    fn page_mode_compat_matrix() {
        use Mode::*;
        let all = [IS, IX, S, SIX, X];
        let expected = [
            // IS  IX    S     SIX    X
            [true, true, true, true, false],     // IS
            [true, true, false, false, false],   // IX
            [true, false, true, false, false],   // S
            [true, false, false, false, false],  // SIX
            [false, false, false, false, false], // X
        ];
        for (i, &a) in all.iter().enumerate() {
            for (j, &b) in all.iter().enumerate() {
                assert_eq!(a.compatible(b), expected[i][j], "{a:?} vs {b:?}");
                // Symmetry.
                assert_eq!(a.compatible(b), b.compatible(a));
            }
        }
    }

    #[test]
    fn lub_is_commutative_and_covering() {
        use Mode::*;
        let all = [IS, IX, S, SIX, X];
        for &a in &all {
            for &b in &all {
                assert_eq!(a.lub(b), b.lub(a));
                assert!(a.lub(b).covers(a));
                assert!(a.lub(b).covers(b));
            }
        }
        assert_eq!(S.lub(IX), SIX);
        assert_eq!(IS.lub(IX), IX);
        assert_eq!(IS.lub(S), S);
        assert_eq!(SIX.lub(X), X);
        assert_eq!(SIX.lub(S), SIX);
    }

    #[test]
    fn intents() {
        assert_eq!(ObjMode::S.intent(), Mode::IS);
        assert_eq!(ObjMode::X.intent(), Mode::IX);
    }

    #[test]
    fn target_accessors() {
        let o = ObjectId::new(PageId(4), SlotId(2));
        assert_eq!(LockTarget::Object(o, ObjMode::X).page(), PageId(4));
        assert_eq!(LockTarget::Page(PageId(9), ObjMode::S).page(), PageId(9));
        assert_eq!(
            LockTarget::PageAdaptive(PageId(4), ObjMode::X, o).mode(),
            ObjMode::X
        );
    }
}
