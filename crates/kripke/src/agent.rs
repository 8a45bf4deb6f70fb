//! Agents and groups of agents.

use std::fmt;

/// Identifier of an agent (a *processor* in Halpern–Moses Section 5).
///
/// Agents are dense indices `0..model.num_agents()`.
///
/// # Examples
///
/// ```
/// use hm_kripke::AgentId;
/// let a = AgentId::new(0);
/// assert_eq!(a.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AgentId(u32);

impl AgentId {
    /// Creates an agent id from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        AgentId(u32::try_from(index).expect("agent index exceeds u32::MAX"))
    }

    /// Returns the dense index of this agent.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for AgentId {
    fn from(index: usize) -> Self {
        AgentId::new(index)
    }
}

/// A non-empty, duplicate-free, sorted group `G` of agents.
///
/// Group-knowledge operators (`D_G`, `S_G`, `E_G`, `C_G`, …) are indexed by
/// such groups. The sorted-dedup canonical form makes groups usable as hash
/// keys and makes equality structural.
///
/// # Examples
///
/// ```
/// use hm_kripke::{AgentGroup, AgentId};
/// let g = AgentGroup::new([2, 0, 2].map(AgentId::new));
/// assert_eq!(g.len(), 2);
/// assert!(g.contains(AgentId::new(0)));
/// assert_eq!(format!("{g}"), "{p0,p2}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentGroup {
    members: Vec<AgentId>,
}

impl AgentGroup {
    /// Creates a group from any collection of agent ids, sorting and
    /// removing duplicates.
    ///
    /// # Panics
    ///
    /// Panics if the collection is empty: the paper's group operators are
    /// defined for non-empty `G` (e.g. Lemma 2 requires a member of `G`).
    pub fn new<I: IntoIterator<Item = AgentId>>(members: I) -> Self {
        let mut members: Vec<AgentId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "agent group must be non-empty");
        AgentGroup { members }
    }

    /// The group `{0, 1, …, n−1}` of all `n` agents.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn all(n: usize) -> Self {
        AgentGroup::new((0..n).map(AgentId::new))
    }

    /// The singleton group `{i}`.
    pub fn singleton(i: AgentId) -> Self {
        AgentGroup { members: vec![i] }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `false` always (groups are non-empty by construction); provided for
    /// API completeness alongside [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, agent: AgentId) -> bool {
        self.members.binary_search(&agent).is_ok()
    }

    /// Members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = AgentId> + '_ {
        self.members.iter().copied()
    }

    /// The members as a sorted slice.
    pub fn as_slice(&self) -> &[AgentId] {
        &self.members
    }

    /// `true` iff every member of `self` is a member of `other`.
    #[cfg(test)]
    fn is_subgroup_of(&self, other: &AgentGroup) -> bool {
        self.members.iter().all(|&a| other.contains(a))
    }
}

impl fmt::Display for AgentGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, a) in self.members.iter().enumerate() {
            if k > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

impl From<AgentId> for AgentGroup {
    fn from(a: AgentId) -> Self {
        AgentGroup::singleton(a)
    }
}

impl<'a> IntoIterator for &'a AgentGroup {
    type Item = AgentId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, AgentId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.members.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form() {
        let g = AgentGroup::new([3, 1, 3, 1].map(AgentId::new));
        assert_eq!(g.as_slice(), &[AgentId::new(1), AgentId::new(3)]);
        assert_eq!(g, AgentGroup::new([1, 3].map(AgentId::new)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_group_panics() {
        AgentGroup::new(std::iter::empty());
    }

    #[test]
    fn all_and_singleton() {
        let g = AgentGroup::all(3);
        assert_eq!(g.len(), 3);
        assert!(AgentGroup::singleton(AgentId::new(1)).is_subgroup_of(&g));
        assert!(!g.is_subgroup_of(&AgentGroup::singleton(AgentId::new(1))));
    }

    #[test]
    fn subgroup_reflexive() {
        let g = AgentGroup::all(4);
        assert!(g.is_subgroup_of(&g));
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", AgentGroup::all(2)), "{p0,p1}");
    }
}
