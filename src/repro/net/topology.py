"""Placed access points and their link-budget coverage footprints.

The paper's Section 2 Hotspot is one server cell; the production system
the ROADMAP aims at is a *fleet* of them.  This module provides the
geometry layer: :class:`AccessPointSite` is one placed hotspot (a
co-located WLAN AP and Bluetooth master, like the paper's testbed server)
and :class:`Topology` is the set of sites a deployment comprises.

Coverage is derived, not declared: each site's per-radio
:class:`LinkBudget` runs the same SNR ramp as
:func:`repro.phy.mobility.quality_from_mobility` —
``tx power - path loss + noise floor`` mapped linearly onto ``[0, 1]``
between an SNR floor and ceiling — so the footprint falls out of
:mod:`repro.phy.channel` path-loss physics.  The budget gap between
802.11b (~15 dBm) and Bluetooth class 2 (~4 dBm) reproduces the paper's
"Bluetooth dies first" behaviour *per cell*: a roaming client loses the
Bluetooth link to its current site long before the WLAN link, and loses
WLAN before the next site takes over.

Coverage queries cost O(sites in range): a site whose path-loss model
has an exact inverse knows its ``reach_m``, the distance from which
every radio's quality is exactly ``0.0``, and :class:`Topology` buckets
such sites on a grid as wide as the largest reach (DESIGN.md "Coverage
queries").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.phy.channel import LogDistancePathLoss, snr_db_from_link_budget

Position = Tuple[float, float]

#: Relative padding of a site's reach over the distance where its
#: strongest radio's SNR meets the floor.  It buys ~4e-6 dB per unit of
#: path-loss exponent, far above the float error of the loss and SNR
#: arithmetic, so quality is exactly 0.0 from ``reach_m`` outwards.
REACH_PAD = 1e-6


@dataclass(frozen=True)
class LinkBudget:
    """One radio kind's link budget at a site.

    Quality ramps linearly from 0 (received SNR at or below
    ``snr_floor_db``) to 1 (at or above ``snr_ceiling_db``) — the shape
    the Hotspot's interface-selection thresholds expect.
    """

    tx_power_dbm: float
    snr_floor_db: float = 5.0
    snr_ceiling_db: float = 25.0
    noise_floor_dbm: float = -95.0

    def __post_init__(self) -> None:
        if self.snr_ceiling_db <= self.snr_floor_db:
            raise ValueError("need SNR ceiling > floor")

    def quality(self, path_loss_db: float) -> float:
        """Link quality in [0, 1] at ``path_loss_db`` of propagation loss."""
        snr = snr_db_from_link_budget(
            self.tx_power_dbm, path_loss_db, self.noise_floor_dbm
        )
        if snr <= self.snr_floor_db:
            return 0.0
        if snr >= self.snr_ceiling_db:
            return 1.0
        return (snr - self.snr_floor_db) / (self.snr_ceiling_db - self.snr_floor_db)


#: Defaults matching repro.phy.mobility's docstring: 802.11b AP vs a
#: Bluetooth class 2 master, both at 2.4 GHz.
WLAN_LINK_BUDGET = LinkBudget(tx_power_dbm=15.0)
BLUETOOTH_LINK_BUDGET = LinkBudget(tx_power_dbm=4.0)


class AccessPointSite:
    """One placed hotspot cell: position + per-radio link budgets.

    Parameters
    ----------
    name:
        Cell identifier, unique within a topology.
    xy:
        Site position, metres.
    radios:
        Link budget per radio kind ("wlan", "bluetooth", ...); defaults
        to a co-located 802.11b AP and Bluetooth master, the paper's
        testbed server.
    path_loss:
        Propagation model with ``loss_db(distance_m)``; defaults to
        indoor log-distance with exponent 3.5.  A model that also has
        ``distance_at_loss_db(loss_db)``, the exact inverse of a
        non-decreasing ``loss_db``, gives the site a finite ``reach_m``;
        any other model (e.g. shadowing) leaves it at ``inf``.
    """

    def __init__(
        self,
        name: str,
        xy: Position,
        radios: Optional[Dict[str, LinkBudget]] = None,
        path_loss=None,
    ) -> None:
        if not name:
            raise ValueError("site name must not be empty")
        self.name = name
        self.xy = (float(xy[0]), float(xy[1]))
        self.radios = dict(
            radios
            if radios is not None
            else {"wlan": WLAN_LINK_BUDGET, "bluetooth": BLUETOOTH_LINK_BUDGET}
        )
        if not self.radios:
            raise ValueError("site needs at least one radio")
        self.path_loss = path_loss or LogDistancePathLoss(exponent=3.5)
        self.reach_m = self._reach_m()

    def _reach_m(self) -> float:
        """Distance from which every radio's quality is exactly 0.0.

        Quality is 0.0 once the SNR is at or below the floor, i.e. once
        the path loss reaches ``tx - noise - floor``; the inverse turns
        the largest such loss into a distance, padded by
        :data:`REACH_PAD`.
        """
        inverse = getattr(self.path_loss, "distance_at_loss_db", None)
        if inverse is None:
            return math.inf
        edge = max(
            inverse(
                budget.tx_power_dbm - budget.noise_floor_dbm - budget.snr_floor_db
            )
            for budget in self.radios.values()
        )
        # A NaN or negative inverse is no bound at all.
        return edge * (1.0 + REACH_PAD) if edge >= 0.0 else math.inf

    def distance_to(self, xy: Position) -> float:
        return math.hypot(xy[0] - self.xy[0], xy[1] - self.xy[1])

    def quality(self, kind: str, xy: Position) -> float:
        """Link quality of radio ``kind`` for a client at ``xy``."""
        budget = self.radios.get(kind)
        if budget is None:
            return 0.0
        return budget.quality(self.path_loss.loss_db(self.distance_to(xy)))

    def cell_quality(self, xy: Position) -> float:
        """Best quality any of the site's radios offers at ``xy``.

        The association/handoff signal: a client belongs to the cell
        whose *best* link serves it, and interface selection inside the
        cell then picks which radio actually carries the bursts.  One
        path-loss evaluation serves every radio (so a shadowing model
        draws one sample per call), and none is made from ``reach_m``
        outwards.
        """
        distance = self.distance_to(xy)
        if distance >= self.reach_m:
            return 0.0
        loss_db = self.path_loss.loss_db(distance)
        return max(budget.quality(loss_db) for budget in self.radios.values())

    def coverage_radius_m(
        self, kind: str, min_quality: float = 0.05, max_radius_m: float = 10_000.0
    ) -> float:
        """Distance at which radio ``kind`` drops to ``min_quality``.

        Found by bisection on the (monotone) path-loss curve; returns
        ``max_radius_m`` if quality never falls that low within it.
        """
        if not 0.0 < min_quality <= 1.0:
            raise ValueError("min quality must be in (0, 1]")
        if self.quality(kind, (self.xy[0] + max_radius_m, self.xy[1])) >= min_quality:
            return max_radius_m
        low, high = 0.0, max_radius_m
        for _ in range(60):
            mid = (low + high) / 2.0
            if self.quality(kind, (self.xy[0] + mid, self.xy[1])) >= min_quality:
                low = mid
            else:
                high = mid
        return (low + high) / 2.0

    def __repr__(self) -> str:
        return (
            f"<AccessPointSite {self.name!r} at {self.xy} "
            f"radios={sorted(self.radios)}>"
        )


class _SiteIndex:
    """Grid buckets over a topology's sites, for coverage queries.

    A bucket is as wide as the largest finite ``reach_m``, so a site can
    only cover a point in its own bucket or one of the eight around it.
    ``near`` maps each bucket to the bounded sites of its 3x3
    neighbourhood; sites without a finite reach are candidates of every
    query.  Candidates keep insertion order.
    """

    def __init__(self, sites: Iterable[AccessPointSite]) -> None:
        sites = list(sites)
        self.by_name = sorted(sites, key=lambda site: site.name)
        self.unbounded = tuple(site for site in sites if site.reach_m == math.inf)
        # A zero reach covers nothing, so such a site is never a candidate.
        bounded = [site for site in sites if 0.0 < site.reach_m < math.inf]
        self.bucket_m = max((site.reach_m for site in bounded), default=1.0)
        near: Dict[Tuple[int, int], List[AccessPointSite]] = {}
        for site in bounded:
            col, row = self.bucket(site.xy)
            for d_col in (-1, 0, 1):
                for d_row in (-1, 0, 1):
                    near.setdefault((col + d_col, row + d_row), []).append(site)
        self.near = {key: tuple(group) for key, group in near.items()}

    def bucket(self, xy: Position) -> Tuple[int, int]:
        return (
            math.floor(xy[0] / self.bucket_m),
            math.floor(xy[1] / self.bucket_m),
        )

    def candidates(self, xy: Position) -> Tuple[AccessPointSite, ...]:
        """Every site that can have positive quality at ``xy``."""
        return self.near.get(self.bucket(xy), ()) + self.unbounded


class Topology:
    """The deployment's set of sites, with coverage queries.

    Sites are held in insertion order; every ranked query breaks quality
    ties on the site name, so identical deployments yield identical
    association and handoff decisions regardless of construction details.
    Queries score only the sites a grid index says can reach the
    position; every other site's quality is exactly 0.0.
    """

    def __init__(self, sites: Iterable[AccessPointSite] = ()) -> None:
        self._sites: Dict[str, AccessPointSite] = {}
        self._index: Optional[_SiteIndex] = None
        for site in sites:
            self.add_site(site)

    def add_site(self, site: AccessPointSite) -> AccessPointSite:
        if site.name in self._sites:
            raise ValueError(f"site {site.name!r} already placed")
        self._sites[site.name] = site
        self._index = None
        return site

    def _coverage_index(self) -> _SiteIndex:
        if self._index is None:
            self._index = _SiteIndex(self._sites.values())
        return self._index

    def site(self, name: str) -> AccessPointSite:
        try:
            return self._sites[name]
        except KeyError:
            raise KeyError(
                f"unknown site {name!r}; known: {sorted(self._sites)}"
            ) from None

    def sites(self) -> List[AccessPointSite]:
        return list(self._sites.values())

    def site_names(self) -> List[str]:
        return list(self._sites)

    def __len__(self) -> int:
        return len(self._sites)

    def __iter__(self):
        return iter(self._sites.values())

    def quality(self, site_name: str, kind: str, xy: Position) -> float:
        return self.site(site_name).quality(kind, xy)

    def cell_quality(self, site_name: str, xy: Position) -> float:
        return self.site(site_name).cell_quality(xy)

    def ranked_sites(self, xy: Position) -> List[Tuple[AccessPointSite, float]]:
        """Every site by descending cell quality at ``xy`` (name tie-break).

        The covering sites come first; every other site follows at 0.0
        in name order.
        """
        index = self._coverage_index()
        ranked = []
        for site in index.candidates(xy):
            quality = site.cell_quality(xy)
            if quality > 0.0:
                ranked.append((site, quality))
        ranked.sort(key=lambda pair: (-pair[1], pair[0].name))
        covering = {site for site, _quality in ranked}
        ranked.extend(
            (site, 0.0) for site in index.by_name if site not in covering
        )
        return ranked

    def best_site(
        self, xy: Position, exclude: Iterable[str] = ()
    ) -> Optional[Tuple[AccessPointSite, float]]:
        """The first of :meth:`ranked_sites` not named in ``exclude``.

        None when every site is excluded.  ``exclude`` is a collection
        of names; a bare ``str`` is rejected rather than read as one.
        """
        if isinstance(exclude, str):
            raise TypeError(
                f"exclude takes a collection of site names, not the str {exclude!r}"
            )
        excluded = frozenset(exclude)
        index = self._coverage_index()
        best = None
        best_quality = 0.0
        for site in index.candidates(xy):
            if site.name in excluded:
                continue
            quality = site.cell_quality(xy)
            if quality > best_quality or (
                quality == best_quality and best is not None and site.name < best.name
            ):
                best, best_quality = site, quality
        if best is not None:
            return best, best_quality
        for site in index.by_name:
            if site.name not in excluded:
                return site, 0.0
        return None

    def __repr__(self) -> str:
        return f"<Topology sites={self.site_names()}>"


def linear_deployment(
    n_sites: int,
    spacing_m: float = 50.0,
    y_m: float = 0.0,
    radios: Optional[Dict[str, LinkBudget]] = None,
    path_loss=None,
    name_prefix: str = "ap",
) -> Topology:
    """A corridor of ``n_sites`` hotspots, ``spacing_m`` apart.

    Sites sit at ``x = spacing/2 + i*spacing`` so an arena of width
    ``n_sites * spacing_m`` is symmetrically covered — the canonical
    fleet-scenario floor plan.
    """
    if n_sites < 1:
        raise ValueError("need at least one site")
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    topology = Topology()
    for index in range(n_sites):
        topology.add_site(
            AccessPointSite(
                f"{name_prefix}{index}",
                (spacing_m / 2.0 + index * spacing_m, y_m),
                radios=radios,
                path_loss=path_loss,
            )
        )
    return topology


def grid_deployment(
    rows: int,
    cols: int,
    spacing_m: float = 50.0,
    radios: Optional[Dict[str, LinkBudget]] = None,
    path_loss=None,
    name_prefix: str = "ap",
) -> Topology:
    """A city block of ``rows x cols`` hotspots on a square lattice.

    Site ``(r, c)`` sits at ``(spacing/2 + c*spacing, spacing/2 +
    r*spacing)`` and is named ``{prefix}{r}-{c}`` — deterministic IDs so
    partitioning a grid into shards is a pure function of the spec.  An
    arena of ``cols*spacing x rows*spacing`` metres is symmetrically
    covered, the floor plan behind the city-scale fleet scenarios.
    """
    if rows < 1 or cols < 1:
        raise ValueError("need at least one row and one column")
    if spacing_m <= 0:
        raise ValueError("spacing must be positive")
    topology = Topology()
    for row in range(rows):
        for col in range(cols):
            topology.add_site(
                AccessPointSite(
                    f"{name_prefix}{row}-{col}",
                    (
                        spacing_m / 2.0 + col * spacing_m,
                        spacing_m / 2.0 + row * spacing_m,
                    ),
                    radios=radios,
                    path_loss=path_loss,
                )
            )
    return topology
