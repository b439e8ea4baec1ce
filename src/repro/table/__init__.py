"""Table layer: the universal table over any layout, and views."""

from repro.table.partitioned import CinderellaTable, unpartitioned_table
from repro.table.views import TableView

__all__ = ["CinderellaTable", "TableView", "unpartitioned_table"]
