package nounsafe

// Label names unsafe without importing it: the clean twin.
const Label = "unsafe"
